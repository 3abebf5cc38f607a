package gator

import "testing"

// Snapshot exposes the incremental tests' snapshot to the external test
// package, whose tests render through internal/report (which imports this
// package, so package gator's own tests cannot).
func Snapshot(t *testing.T, res *Result) string { return snapshot(t, res) }
