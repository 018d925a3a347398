package cluster

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestClientTimeoutOnHungServer pins the satellite fix for the unbounded
// http.DefaultClient: a coordinator that accepts the connection and then
// never answers must surface as an error within the configured timeout, not
// hang the caller forever.
func TestClientTimeoutOnHungServer(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hold the request open until the test ends
	}))
	defer func() { close(release); ts.Close() }()

	api := NewClient(ts.URL)
	api.http.Timeout = 100 * time.Millisecond
	start := time.Now()
	err := api.Health()
	if err == nil {
		t.Fatal("hung server did not error")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("timeout took %v, want ~100ms", waited)
	}
}

// TestClientDefaultTimeoutConfigured guards against regressing to the
// timeout-less http.DefaultClient.
func TestClientDefaultTimeoutConfigured(t *testing.T) {
	c := NewClient("http://example.invalid")
	if c.http.Timeout != DefaultClientTimeout {
		t.Fatalf("default timeout = %v, want %v", c.http.Timeout, DefaultClientTimeout)
	}
	if c.http == http.DefaultClient {
		t.Fatal("client shares http.DefaultClient")
	}
}
