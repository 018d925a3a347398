package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/engine"
	"texid/internal/metrics"
	"texid/internal/sift"
	"texid/internal/wire"
)

// The RESTful API of Sec. 8: "We can add, delete, update, and search a
// texture image through the provided APIs in this system."
//
//	GET    /healthz            liveness probe
//	GET    /v1/stats           cluster statistics
//	POST   /v1/textures        add    {"id": 1, "record_b64": "..."}
//	PUT    /v1/textures/{id}   update {"record_b64": "..."}
//	DELETE /v1/textures/{id}   delete
//	POST   /v1/search          search {"record_b64": "..."}
//	POST   /v1/search/batch    search {"records_b64": ["...", ...]}
//	POST   /v1/compact         reclaim tombstoned reference slots
//
// record_b64 is a base64 wire.FeatureRecord (the same bytes the kvstore
// persists).

// textureRequest is the body of add/update calls.
type textureRequest struct {
	ID        int    `json:"id,omitempty"`
	RecordB64 string `json:"record_b64"`
}

// batchSearchRequest is the body of /v1/search/batch.
type batchSearchRequest struct {
	RecordsB64 []string `json:"records_b64"`
}

// SearchResponse is the body returned by /v1/search. Partial=true flags a
// degraded answer: one or more shards were down and the result covers only
// the shards_answered/shards_total that responded.
type SearchResponse struct {
	BestID         int     `json:"best_id"`
	Score          int     `json:"score"`
	Accepted       bool    `json:"accepted"`
	Compared       int     `json:"compared"`
	ElapsedUS      float64 `json:"elapsed_us"`
	Speed          float64 `json:"speed_images_per_sec"`
	Partial        bool    `json:"partial,omitempty"`
	ShardsAnswered int     `json:"shards_answered"`
	ShardsTotal    int     `json:"shards_total"`
	Ranked         []struct {
		RefID int `json:"ref_id"`
		Score int `json:"score"`
	} `json:"ranked,omitempty"`
}

// searchResponse converts a merged report to its JSON body, carrying at
// most ranked of its candidates: 10 for /v1/search, none for a
// /v1/search/batch result.
func searchResponse(rep *Report, ranked int) SearchResponse {
	resp := SearchResponse{
		BestID:         rep.BestID,
		Score:          rep.Score,
		Accepted:       rep.Accepted,
		Compared:       rep.Compared,
		ElapsedUS:      rep.ElapsedUS,
		Speed:          rep.Speed,
		Partial:        rep.Partial,
		ShardsAnswered: rep.ShardsAnswered,
		ShardsTotal:    rep.ShardsTotal,
	}
	for _, cand := range rep.Ranked[:min(ranked, len(rep.Ranked))] {
		resp.Ranked = append(resp.Ranked, struct {
			RefID int `json:"ref_id"`
			Score int `json:"score"`
		}{cand.RefID, cand.Score})
	}
	return resp
}

// LatencyQuantiles summarizes a latency histogram: upper-bound estimates
// of the p50/p95/p99 bucket boundaries, in milliseconds.
type LatencyQuantiles struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_ms"`
	P95   float64 `json:"p95_ms"`
	P99   float64 `json:"p99_ms"`
}

// quantiles snapshots a histogram into its stats form.
func quantiles(h *metrics.Histogram) LatencyQuantiles {
	n, _ := h.Snapshot()
	return LatencyQuantiles{
		Count: n,
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// ServeStatsResponse reports the micro-batching admission layer: how many
// searches it admitted, how many scatter passes they coalesced into, and
// the achieved mean batch size. All zero when coalescing is disabled.
type ServeStatsResponse struct {
	Submitted uint64  `json:"submitted"`
	Batches   uint64  `json:"batches"`
	MeanBatch float64 `json:"mean_batch"`
}

// StatsResponse is the body returned by /v1/stats.
type StatsResponse struct {
	Workers        int      `json:"workers"`
	References     int      `json:"references"`
	CapacityImages int64    `json:"capacity_images"`
	CacheGB        float64  `json:"cache_gb"`
	WorkersDead    int      `json:"workers_dead"`
	Health         []string `json:"health"`
	// SimLatency summarizes the simulated GPU latency per search;
	// WallLatency the wall-clock time per search API request.
	SimLatency  LatencyQuantiles   `json:"sim_latency"`
	WallLatency LatencyQuantiles   `json:"wall_latency"`
	Serve       ServeStatsResponse `json:"serve"`
}

// statusRecorder captures the response code for the error counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Handler returns the cluster's HTTP API.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Refresh occupancy gauges at scrape time.
		s := c.Stats()
		c.reg.Gauge("texid_references", "enrolled reference images").Set(float64(s.References))
		c.reg.Gauge("texid_capacity_images", "hybrid cache capacity in images").Set(float64(s.CapacityImages))
		c.reg.Gauge("texid_workers", "shard workers").Set(float64(s.Workers))
		c.reg.Handler().ServeHTTP(w, r)
	}))
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		s := c.Stats()
		sv := c.ServeStats()
		resp := StatsResponse{
			Workers:        s.Workers,
			References:     s.References,
			CapacityImages: s.CapacityImages,
			CacheGB:        s.CacheGB,
			WorkersDead:    s.WorkersDead,
			SimLatency:     quantiles(c.mSearchLatency),
			WallLatency:    quantiles(c.mWallLatency),
			Serve: ServeStatsResponse{
				Submitted: sv.Submitted,
				Batches:   sv.Batches,
				MeanBatch: sv.MeanBatch,
			},
		}
		for _, h := range s.Health {
			resp.Health = append(resp.Health, h.String())
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/v1/textures", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		rec := c.readRecord(w, r)
		if rec == nil {
			return
		}
		id := int(rec.ID)
		if err := c.Add(id, rec.Features, rec.Keypoints); err != nil {
			httpError(w, writeStatus(err), err.Error())
			return
		}
		writeJSON(w, http.StatusCreated, map[string]int{"id": id})
	})
	mux.HandleFunc("/v1/textures/", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/v1/textures/"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad texture id")
			return
		}
		switch r.Method {
		case http.MethodDelete:
			removed, err := c.Remove(id)
			if err != nil {
				httpError(w, writeStatus(err), err.Error())
				return
			}
			if !removed {
				httpError(w, http.StatusNotFound, fmt.Sprintf("texture %d not found", id))
				return
			}
			writeJSON(w, http.StatusOK, map[string]int{"deleted": id})
		case http.MethodPut:
			rec := c.readRecord(w, r)
			if rec == nil {
				return
			}
			if err := c.Update(id, rec.Features, rec.Keypoints); err != nil {
				httpError(w, writeStatus(err), err.Error())
				return
			}
			writeJSON(w, http.StatusOK, map[string]int{"updated": id})
		default:
			httpError(w, http.StatusMethodNotAllowed, "PUT or DELETE")
		}
	})
	mux.HandleFunc("/v1/search/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		body, ok := readBody(w, r, c.bodyLimit(maxBatchRecords), c.bodyLimit(1))
		if !ok {
			return
		}
		recs, err := decodeBatchBody(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		queryFeats := make([]*blas.Matrix, len(recs))
		queryKps := make([][]sift.Keypoint, len(recs))
		for i, rec := range recs {
			queryFeats[i], queryKps[i] = rec.Features, rec.Keypoints
		}
		start := time.Now()
		reps, err := c.SearchBatch(queryFeats, queryKps)
		c.mWallLatency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeSearchJSON(w, appendResults(make([]byte, 0, 256*len(reps)), reps))
	})
	mux.HandleFunc("/v1/compact", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		n, err := c.Compact()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]int{"reclaimed": n})
	})
	mux.HandleFunc("/v1/search", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		rec := c.readRecord(w, r)
		if rec == nil {
			return
		}
		// Concurrent requests coalesce into shared scatter passes when the
		// admission layer is configured.
		start := time.Now()
		rep, err := c.SearchCoalesced(rec.Features, rec.Keypoints)
		c.mWallLatency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		resp := searchResponse(rep, 10)
		writeSearchJSON(w, appendSearchResponse(make([]byte, 0, 512), &resp))
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.mAPIRequests.Inc()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		mux.ServeHTTP(sr, r)
		if sr.status >= 400 {
			c.mAPIErrors.Inc()
		}
	})
}

// maxBatchRecords is the most records one /v1/search/batch body may carry.
const maxBatchRecords = 256

// bodyLimit is the largest request body the API reads for the given number
// of records, computed from the engine shape rather than configured: the
// base64 of the largest record that shape admits — a header, Dim FP32
// values for each of max(RefFeatures, QueryFeatures) descriptors, and one
// keypoint and one prefilter code per descriptor — plus the JSON around it.
func (c *Cluster) bodyLimit(records int) int64 {
	e := c.cfg.Engine
	record := 64 + max(e.RefFeatures, e.QueryFeatures)*(e.Dim*4+20+binq.Bytes)
	return int64(records) * int64((record+2)/3*4+256)
}

// readRecord reads and decodes the body add, update and search share
// (decodeRecordBody). On an oversized or malformed body it answers 413 or
// 400 and returns nil.
func (c *Cluster) readRecord(w http.ResponseWriter, r *http.Request) *wire.FeatureRecord {
	body, ok := readBody(w, r, c.bodyLimit(1), c.bodyLimit(1))
	if !ok {
		return nil
	}
	rec, err := decodeRecordBody(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil
	}
	return rec
}

// writeStatus is the HTTP status of a failed Add or Update: 409 for a
// duplicate id, 400 for a mis-shaped record, 500 for anything else (kvstore
// down, no live shard).
func writeStatus(err error) int {
	switch {
	case errors.Is(err, errDuplicate):
		return http.StatusConflict
	case errors.Is(err, engine.ErrShape):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An encode failure here means the client hung up mid-reply; there is
	// no channel left to report on.
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
