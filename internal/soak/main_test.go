package soak

import (
	"testing"

	"texid/internal/leakcheck"
)

// TestMain fails the package when a goroutine its tests started is still
// running Deadline after they finish (see leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }
