package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"texid"
	"texid/internal/cluster"
	"texid/internal/engine"
	"texid/internal/kvstore"
)

// answer is what the system said about one query.
type answer struct {
	bestID   int
	score    int
	compared int
	accepted bool
	simUS    float64 // device-clock latency the system reported
}

// reply is the outcome of one request: ok is false when it errored, was
// refused or came back non-2xx; answers holds one entry per query.
type reply struct {
	ok      bool
	answers []answer
}

// target is a built system under test. The phases drive both kinds (the
// REST cluster and the library System) through it.
type target interface {
	// request sends pooled request i on caller's own connection.
	request(caller, i int) reply
	// oracle answers pooled request i by calling the search layer directly,
	// bypassing sockets, JSON, the wire format and the coalescer.
	oracle(i int) ([]answer, error)
	// engines are the search engines behind the target, one per shard.
	engines() []*engine.Engine
	// layers is the traced pass: it replays pooled requests at every layer
	// boundary for at most budget and returns the per-layer metrics.
	layers(tr *tracer, budget time.Duration) (map[string]float64, error)
	close()
}

// restTarget is texsearchd's wiring minus flag parsing and the access log:
// a cluster behind its own Handler on a real loopback http.Server.
type restTarget struct {
	spec    spec
	in      *inputs
	cluster *cluster.Cluster
	kv      *kvstore.Server
	srv     *http.Server
	served  chan error
	base    string
	clients []*http.Client // one keep-alive connection each
}

func setupREST(s spec, in *inputs) (*restTarget, error) {
	t := &restTarget{spec: s, in: in}
	cfg := cluster.Config{Workers: shards, Engine: s.engineConfig(), Serve: serveOptions()}
	if s.churn {
		kv, err := kvstore.Serve(kvstore.NewStore(), "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("starting the kvstore: %w", err)
		}
		t.kv = kv
		cfg.StoreAddr = kv.Addr()
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.close()
		return nil, fmt.Errorf("building the cluster: %w", err)
	}
	t.cluster = c

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	t.base = "http://" + ln.Addr().String()
	t.srv = &http.Server{Handler: c.Handler(), ReadHeaderTimeout: 10 * time.Second}
	t.served = make(chan error, 1)
	go func() { t.served <- t.srv.Serve(ln) }()
	for i := 0; i <= s.callers; i++ { // the search callers plus the writer
		t.clients = append(t.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}

	for id, feats := range in.refs {
		var err error
		if s.churn {
			// Through the kvstore, with keypoints, as a REST enrollment would.
			err = c.Add(id, feats, keypoints(in.seed, 1<<20+id, refFeats))
		} else {
			err = c.Add(id, feats, nil)
		}
		if err != nil {
			t.close()
			return nil, fmt.Errorf("enrolling reference %d: %w", id, err)
		}
	}
	for i, e := range c.Workers() {
		if err := e.Flush(); err != nil {
			t.close()
			return nil, fmt.Errorf("sealing shard %d: %w", i, err)
		}
	}
	return t, nil
}

// do sends one request and returns the status and body.
func (t *restTarget) do(caller int, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.clients[caller].Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (t *restTarget) engines() []*engine.Engine { return t.cluster.Workers() }

func (t *restTarget) searchPath() string {
	if t.spec.churn {
		return "/v1/search/batch"
	}
	return "/v1/search"
}

func (t *restTarget) request(caller, i int) reply {
	status, body, err := t.do(caller, http.MethodPost, t.searchPath(), t.in.bodies[i])
	if err != nil || status/100 != 2 {
		return reply{}
	}
	answers, err := parseAnswers(body, t.spec.churn)
	if err != nil {
		return reply{}
	}
	return reply{ok: true, answers: answers}
}

// parseAnswers decodes a /v1/search or /v1/search/batch response body.
func parseAnswers(body []byte, batch bool) ([]answer, error) {
	var results []cluster.SearchResponse
	if batch {
		var out struct {
			Results []cluster.SearchResponse `json:"results"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return nil, err
		}
		results = out.Results
	} else {
		var one cluster.SearchResponse
		if err := json.Unmarshal(body, &one); err != nil {
			return nil, err
		}
		results = []cluster.SearchResponse{one}
	}
	answers := make([]answer, len(results))
	for k, r := range results {
		answers[k] = answer{bestID: r.BestID, score: r.Score, compared: r.Compared, accepted: r.Accepted, simUS: r.ElapsedUS}
	}
	return answers, nil
}

func reportAnswer(rep *cluster.Report) answer {
	return answer{bestID: rep.BestID, score: rep.Score, compared: rep.Compared, accepted: rep.Accepted, simUS: rep.ElapsedUS}
}

func (t *restTarget) oracle(i int) ([]answer, error) {
	n := t.in.perRequest
	if t.spec.churn {
		reps, err := t.cluster.SearchBatch(t.in.queries[i*n:(i+1)*n], t.in.qryKps[i*n:(i+1)*n])
		if err != nil {
			return nil, err
		}
		answers := make([]answer, len(reps))
		for k, rep := range reps {
			answers[k] = reportAnswer(rep)
		}
		return answers, nil
	}
	rep, err := t.cluster.Search(t.in.queries[i], t.in.qryKps[i])
	if err != nil {
		return nil, err
	}
	return []answer{reportAnswer(rep)}, nil
}

// close stops the server and waits for its goroutine, then releases the
// cluster and the kvstore. Safe on a partly built target.
func (t *restTarget) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
	if t.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = t.srv.Shutdown(ctx) // a straggling connection is closed by Close below
		cancel()
		_ = t.srv.Close()
		if err := <-t.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("# http server: %v\n", err)
		}
	}
	if t.cluster != nil {
		_ = t.cluster.Close() // only the kvstore connection can fail to close, and it is going away
	}
	if t.kv != nil {
		_ = t.kv.Close()
	}
}

// libTarget is the single-node library System, searched from pixels.
type libTarget struct {
	in  *inputs
	sys *texid.System
}

func setupLib(s spec, in *inputs) (*libTarget, error) {
	cfg := texid.DefaultConfig()
	cfg.Engine = s.engineConfig()
	sys, err := texid.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("opening the system: %w", err)
	}
	if _, err := sys.EnrollImages(in.refImgs); err != nil {
		return nil, err
	}
	if err := sys.Engine().Flush(); err != nil {
		return nil, fmt.Errorf("sealing the index: %w", err)
	}
	return &libTarget{in: in, sys: sys}, nil
}

func resultAnswer(r *texid.Result) answer {
	return answer{bestID: r.ID, score: r.Score, compared: r.Compared, accepted: r.Accepted, simUS: r.ElapsedUS}
}

func (t *libTarget) request(_, i int) reply {
	r, err := t.sys.SearchImage(t.in.qryImgs[i])
	if err != nil {
		return reply{}
	}
	return reply{ok: true, answers: []answer{resultAnswer(r)}}
}

// oracle extracts with the same configuration and searches the engine
// directly, so a SearchImage that skipped or altered a step would differ.
func (t *libTarget) oracle(i int) ([]answer, error) {
	f := t.sys.ExtractQuery(t.in.qryImgs[i])
	rep, err := t.sys.Engine().Search(f.Descriptors, f.Keypoints)
	if err != nil {
		return nil, err
	}
	return []answer{{bestID: rep.BestID, score: rep.Score, compared: rep.Compared, accepted: rep.Accepted, simUS: rep.ElapsedUS}}, nil
}

func (t *libTarget) engines() []*engine.Engine { return []*engine.Engine{t.sys.Engine()} }

func (t *libTarget) close() {}

// setup builds the workload's system and warms it: build, enroll, Flush,
// warm-up requests, then a forced GC so the timed phase starts clean.
func setup(s spec, in *inputs) (target, tally, error) {
	var t target
	var err error
	if s.lib {
		t, err = setupLib(s, in)
	} else {
		t, err = setupREST(s, in)
	}
	if err != nil {
		return nil, tally{}, err
	}
	var warm tally
	for i := 0; i < warmups; i++ {
		warm.check(in, i%in.requests(), t.request(0, i%in.requests()))
	}
	if warm.failed > 0 {
		t.close()
		return nil, warm, fmt.Errorf("%d of %d warm-up requests failed", warm.failed, warmups)
	}
	return t, warm, nil
}
