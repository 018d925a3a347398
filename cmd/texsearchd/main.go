// Command texsearchd runs the distributed texture search service of
// Sec. 8: N simulated GPU shard workers behind a RESTful HTTP API, with an
// optional embedded (or external) Redis-role kvstore for feature-record
// persistence.
//
//	texsearchd -listen :8080 -workers 14
//	texsearchd -listen :8080 -kvstore embedded          # persist + reload
//	texsearchd -listen :8080 -kvstore 127.0.0.1:6379    # external store
//
// API (see internal/cluster/api.go):
//
//	GET    /healthz
//	GET    /v1/stats
//	POST   /v1/textures       {"id": 1, "record_b64": "..."}
//	PUT    /v1/textures/{id}  {"record_b64": "..."}
//	DELETE /v1/textures/{id}
//	POST   /v1/search         {"record_b64": "..."}
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"texid/internal/cluster"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/kvstore"
	"texid/internal/serve"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("texsearchd: ")

	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
	workers := flag.Int("workers", 14, "number of shard GPU workers")
	device := flag.String("device", "p100", "simulated GPU model: p100, v100, v100tc")
	batch := flag.Int("batch", 256, "reference batch size")
	streams := flag.Int("streams", 8, "CUDA streams per worker")
	refFeatures := flag.Int("ref-features", 384, "features kept per reference image (m)")
	queryFeatures := flag.Int("query-features", 768, "features kept per query image (n)")
	hostCacheGB := flag.Int("host-cache-gb", 64, "host cache budget per worker, GB")
	store := flag.String("kvstore", "", `feature persistence: "", "embedded", or a host:port of a RESP server`)
	kvListen := flag.String("kvstore-listen", "127.0.0.1:0", "listen address for the embedded kvstore")
	kvAOF := flag.String("kvstore-aof", "", "append-only file for the embedded kvstore (survives restarts; needs -kvstore embedded)")
	minShards := flag.Int("min-shards", 1, "minimum shards that must answer before a search fails instead of degrading")
	maxBatch := flag.Int("max-batch", 16, "max concurrent /v1/search requests coalesced into one batched scatter pass (<= 1 disables)")
	batchWindowUS := flag.Int("batch-window-us", 200, "how long the first query of a batch waits for co-travellers, wall-clock µs")
	pruneC := flag.Int("prune-c", 0, "binary Hamming prefilter: candidate images reranked per shard (0 disables pruning)")
	pruneProbes := flag.Int("prune-probes", 0, "query descriptors probed by the prefilter scan (0 = default 64)")
	flag.Parse()
	if *kvAOF != "" && *store != "embedded" {
		// Only the embedded store writes an AOF; starting without one would
		// leave an operator believing the references persist.
		log.Print("-kvstore-aof needs -kvstore embedded")
		flag.Usage()
		os.Exit(2)
	}
	if *batchWindowUS < 0 {
		log.Print("-batch-window-us must not be negative")
		flag.Usage()
		os.Exit(2)
	}

	cfg := engine.DefaultConfig()
	switch *device {
	case "p100":
		cfg.Spec = gpusim.TeslaP100()
	case "v100":
		cfg.Spec = gpusim.TeslaV100(false)
	case "v100tc":
		cfg.Spec = gpusim.TeslaV100(true)
	default:
		log.Fatalf("unknown device %q (want p100, v100, v100tc)", *device)
	}
	cfg.BatchSize = *batch
	cfg.Streams = *streams
	cfg.RefFeatures = *refFeatures
	cfg.QueryFeatures = *queryFeatures
	cfg.HostCacheBytes = int64(*hostCacheGB) << 30
	cfg.PruneC = *pruneC
	cfg.PruneProbes = *pruneProbes

	storeAddr := *store
	var db *kvstore.Store // the embedded kvstore, nil with an external one or none
	var kvSrv *kvstore.Server
	if storeAddr == "embedded" {
		db = kvstore.NewStore()
		var err error
		if *kvAOF != "" {
			if db, err = kvstore.OpenAOF(*kvAOF); err != nil {
				log.Fatalf("opening kvstore AOF: %v", err)
			}
			log.Printf("embedded kvstore persists to %s (%d keys replayed)", *kvAOF, db.DBSize())
		}
		if kvSrv, err = kvstore.Serve(db, *kvListen); err != nil {
			log.Fatalf("starting embedded kvstore: %v", err)
		}
		storeAddr = kvSrv.Addr()
		log.Printf("embedded kvstore listening on %s", storeAddr)
	}

	c, err := cluster.New(cluster.Config{
		Workers:   *workers,
		Engine:    cfg,
		StoreAddr: storeAddr,
		MinShards: *minShards,
		Serve: serve.Options{
			MaxBatch: *maxBatch,
			Window:   time.Duration(*batchWindowUS) * time.Microsecond,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	if storeAddr != "" {
		n, err := c.LoadFromStore()
		if err != nil {
			log.Fatalf("restoring from kvstore: %v", err)
		}
		if n > 0 {
			log.Printf("restored %d references from the kvstore", n)
		}
	}

	st := c.Stats()
	log.Printf("%d workers on %s; capacity %d references (%.0f GB hybrid cache)",
		st.Workers, cfg.Spec.Name, st.CapacityImages, st.CacheGB)
	if *maxBatch > 1 {
		log.Printf("micro-batching: coalescing up to %d concurrent searches within %dµs", *maxBatch, *batchWindowUS)
	}
	if *pruneC > 0 {
		log.Printf("candidate pruning: Hamming prefilter reranks top-%d images per shard", *pruneC)
	}
	log.Printf("serving REST API on http://%s (metrics at /metrics)", *listen)

	srv := &http.Server{
		Addr:              *listen,
		Handler:           logRequests(c.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("received %v, draining connections...", s)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	// Tear down in reverse order of start-up. The AOF goes last: closing it
	// flushes the log, so its error is the one that means lost writes.
	if err := c.Close(); err != nil {
		log.Printf("closing the cluster: %v", err)
	}
	if kvSrv != nil {
		if err := kvSrv.Close(); err != nil {
			log.Printf("closing the embedded kvstore: %v", err)
		}
	}
	if db != nil {
		if err := db.CloseAOF(); err != nil {
			log.Fatalf("closing kvstore AOF: %v", err)
		}
	}
	log.Print("bye")
}

// logRequests is a one-line-per-request access log.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s %s %s", r.RemoteAddr, r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond))
	})
}
