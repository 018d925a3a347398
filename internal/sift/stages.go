package sift

import (
	"slices"

	"texid/internal/blas"
	"texid/internal/texture"
)

// Stages is one extraction held at its stage boundaries: the scale-space
// pyramid, extremum detection with the border drop, orientation assignment
// with the top-k cut, and description (RootSIFT included). Each method reruns its stage, as
// Extract runs it, on the current output of the stage before, so a
// benchmark can time one stage alone; Features then reads the extraction
// off the current outputs. A Stages owns its arena and is not safe for
// concurrent use.
type Stages struct {
	im   *texture.Image
	cfg  Config
	a    arena
	p    *pyramid
	kps  []Keypoint // detection output, aliasing a
	okps []Keypoint // orientation and top-k output, aliasing a
	desc *blas.Matrix
}

// NewStages runs every stage of im's extraction once.
func NewStages(im *texture.Image, cfg Config) *Stages {
	s := &Stages{im: im, cfg: cfg}
	s.Pyramid()
	s.Detect()
	s.Orient()
	s.Describe()
	return s
}

// Pyramid rebuilds the Gaussian and DoG scale spaces, recycling the
// previous ones; the later stages must rerun before Features.
func (s *Stages) Pyramid() {
	if s.p != nil {
		s.p.release(&s.a)
	}
	s.p = buildPyramidArena(&s.a, s.im)
}

// Detect reruns extremum detection and the border drop on the current
// pyramid.
func (s *Stages) Detect() { s.kps = dropBorder(detectExtrema(s.p, &s.a), s.im.W, s.im.H) }

// Orient reruns orientation assignment and the top-k cut on the current
// detections.
func (s *Stages) Orient() {
	s.okps = topKByResponse(assignOrientations(s.p, &s.a, s.kps), s.cfg.MaxFeatures)
}

// Describe recomputes the descriptors of the current oriented keypoints.
func (s *Stages) Describe() { s.desc = describe(s.p, s.okps, s.cfg) }

// Features returns the extraction the current stage outputs make, which is
// Extract's when every stage has run since the last Pyramid.
func (s *Stages) Features() *Features {
	return &Features{Descriptors: s.desc, Keypoints: slices.Clone(s.okps)}
}
