// Package introspect keeps the two names the benchmark imports for lockd's
// flight recorder, which lives in internal/obs.
package introspect

import "fairrw/internal/obs"

// Recorder is obs.Recorder.
type Recorder = obs.Recorder

// NewRecorder is obs.NewRecorder.
func NewRecorder(shards, perRing int) *Recorder { return obs.NewRecorder(shards, perRing) }
