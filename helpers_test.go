package texid

import (
	"texid/internal/cluster"
	"texid/internal/texture"
)

// Test-only helpers bridging the public facade and internal packages.

func defaultSmallParams() texture.GenParams {
	p := texture.DefaultGenParams()
	p.Size = 128
	p.Flakes = 500
	return p
}

func generateWith(seed int64, p texture.GenParams) *Image {
	return texture.Generate(seed, p)
}

func newAPIClient(baseURL string) *cluster.Client {
	return cluster.NewClient(baseURL)
}
