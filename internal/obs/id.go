package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// ctxKey is the package's private context-key namespace.
type ctxKey int

const runIDKey ctxKey = iota

// idFallback serializes IDs when the system randomness source fails —
// uniqueness within the process is all the fallback promises.
var idFallback atomic.Uint64

// NewRunID returns a fresh 16-hex-character run identifier. Run IDs name
// one simulation request end to end: they appear in structured logs, in
// pprof labels, in response headers, and as the key of the run ring's
// trace endpoint.
func NewRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("fallback-%08x", idFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// WithRunID returns a context carrying the run ID.
func WithRunID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, runIDKey, id)
}

// RunID returns the context's run ID, or "" when none is set.
func RunID(ctx context.Context) string {
	id, _ := ctx.Value(runIDKey).(string)
	return id
}

// ValidRunID reports whether s is a well-formed run identifier as minted
// by NewRunID: exactly 16 lower-case hex digits. Both daemons adopt a
// client-supplied X-Run-ID only in this shape; anything else gets a
// freshly minted ID rather than an error, so garbage headers cannot
// pollute logs, rings or timelines.
func ValidRunID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
