package cluster

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"texid/internal/wire"
)

// DefaultClientTimeout bounds every REST call. Generous enough for large
// batch searches, small enough that a hung coordinator surfaces as an error
// instead of wedging the caller forever.
const DefaultClientTimeout = 30 * time.Second

// Client is a Go client for the cluster's REST API (used by the texsearch
// CLI and usable by any downstream service).
type Client struct {
	base string
	http *http.Client
}

// NewClient targets a coordinator at baseURL (e.g. "http://127.0.0.1:8080").
// Requests time out after DefaultClientTimeout.
func NewClient(baseURL string) *Client {
	return &Client{base: baseURL, http: &http.Client{Timeout: DefaultClientTimeout}}
}

func (c *Client) doJSON(method, path string, body any, out any) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, c.base+path, &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e) // best-effort detail; resp.Status carries the verdict
		return fmt.Errorf("cluster: %s %s: %s (%s)", method, path, resp.Status, e.Error)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// Health checks the coordinator's liveness endpoint.
func (c *Client) Health() error {
	var out map[string]string
	if err := c.doJSON(http.MethodGet, "/healthz", nil, &out); err != nil {
		return err
	}
	if out["status"] != "ok" {
		return fmt.Errorf("cluster: unhealthy: %v", out)
	}
	return nil
}

// Stats fetches cluster statistics.
func (c *Client) Stats() (StatsResponse, error) {
	var out StatsResponse
	err := c.doJSON(http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Add enrolls a feature record.
func (c *Client) Add(rec *wire.FeatureRecord) error {
	body := textureRequest{
		ID:        int(rec.ID),
		RecordB64: base64.StdEncoding.EncodeToString(wire.Encode(rec)),
	}
	return c.doJSON(http.MethodPost, "/v1/textures", body, nil)
}

// Delete removes a texture by id.
func (c *Client) Delete(id int) error {
	return c.doJSON(http.MethodDelete, fmt.Sprintf("/v1/textures/%d", id), nil, nil)
}

// Update replaces a texture's features.
func (c *Client) Update(id int, rec *wire.FeatureRecord) error {
	body := textureRequest{RecordB64: base64.StdEncoding.EncodeToString(wire.Encode(rec))}
	return c.doJSON(http.MethodPut, fmt.Sprintf("/v1/textures/%d", id), body, nil)
}

// Search runs a one-to-many search with the record's features.
func (c *Client) Search(rec *wire.FeatureRecord) (SearchResponse, error) {
	body := textureRequest{RecordB64: base64.StdEncoding.EncodeToString(wire.Encode(rec))}
	var out SearchResponse
	err := c.doJSON(http.MethodPost, "/v1/search", body, &out)
	return out, err
}

// SearchBatch runs several searches in one request; the server matches the
// whole batch with multi-query GEMMs (higher throughput, batched latency).
func (c *Client) SearchBatch(recs []*wire.FeatureRecord) ([]SearchResponse, error) {
	body := batchSearchRequest{}
	for _, rec := range recs {
		body.RecordsB64 = append(body.RecordsB64, base64.StdEncoding.EncodeToString(wire.Encode(rec)))
	}
	var out struct {
		Results []SearchResponse `json:"results"`
	}
	err := c.doJSON(http.MethodPost, "/v1/search/batch", body, &out)
	return out.Results, err
}
