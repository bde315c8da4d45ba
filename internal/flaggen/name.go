package flaggen

// The naming scheme and resolver: canonical versioned names
// "gen:v1:<seed>:<variant>" denote flags of the default grammar, and an
// init-time flagspec.RegisterDynamic hook makes them resolve anywhere a
// builtin name does — sweep specs, the wire DTOs, the differential
// harness, the CLI — without any of those layers importing flaggen.
//
// ContentKey is the cache-address side of the scheme: the sweep layer
// substitutes it for the literal name when composing sweep keys
// (through AppendContentKey, which allocates nothing), so generated-flag
// results are content-addressed by the grammar's hash.
// Two processes share a memoized result exactly when their default
// grammars agree; editing the grammar misses (never corrupts) every
// existing cache, store, and tier entry.

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"flagsim/internal/flagspec"
)

// NamePrefix is the name-scheme prefix registered with flagspec.
const NamePrefix = "gen"

// ErrBadName is wrapped by every malformed-name error, so transport
// layers can classify them as client errors (HTTP 400, never 500).
var ErrBadName = errors.New("flaggen: malformed generated-flag name (want gen:v1:<seed>:<variant>)")

// Ref identifies one generated flag of the default grammar.
type Ref struct {
	Seed, Variant uint64
}

// Name returns r's canonical name.
func (r Ref) Name() string { return Name(r.Seed, r.Variant) }

// Name returns the canonical versioned name of the variant-th flag of
// the seed's family: "gen:v1:<seed>:<variant>".
func Name(seed, variant uint64) string {
	return NamePrefix + ":v1:" + strconv.FormatUint(seed, 10) + ":" + strconv.FormatUint(variant, 10)
}

// IsName reports whether s is in the generated-flag name scheme (it may
// still be malformed; ParseName decides).
func IsName(s string) bool { return strings.HasPrefix(s, NamePrefix+":") }

// ParseName parses a canonical generated-flag name. Only the exact
// canonical form round-trips: decimal seed and variant with no signs,
// spaces, or redundant leading zeros, version "v1". Every failure wraps
// ErrBadName.
func ParseName(s string) (Ref, error) {
	rest, ok := strings.CutPrefix(s, NamePrefix+":")
	if !ok {
		return Ref{}, fmt.Errorf("%w: %q lacks %q prefix", ErrBadName, s, NamePrefix+":")
	}
	version, rest, ok := strings.Cut(rest, ":")
	if !ok {
		return Ref{}, fmt.Errorf("%w: %q", ErrBadName, s)
	}
	if version != "v1" {
		return Ref{}, fmt.Errorf("%w: unsupported version %q in %q", ErrBadName, version, s)
	}
	seedStr, variantStr, ok := strings.Cut(rest, ":")
	if !ok || strings.Contains(variantStr, ":") {
		return Ref{}, fmt.Errorf("%w: %q", ErrBadName, s)
	}
	seed, err := parseCanonicalUint(seedStr)
	if err != nil {
		return Ref{}, fmt.Errorf("%w: bad seed in %q: %v", ErrBadName, s, err)
	}
	variant, err := parseCanonicalUint(variantStr)
	if err != nil {
		return Ref{}, fmt.Errorf("%w: bad variant in %q: %v", ErrBadName, s, err)
	}
	return Ref{Seed: seed, Variant: variant}, nil
}

// parseCanonicalUint accepts exactly the strconv.FormatUint rendering:
// no sign, no leading zeros (except "0" itself), fits in uint64. In base
// 10, ParseUint accepts digits alone, so a leading zero is the only way
// a string it accepts can differ from that rendering.
func parseCanonicalUint(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if len(s) > 1 && s[0] == '0' {
		return 0, fmt.Errorf("non-canonical integer %q (want %q)", s, strconv.FormatUint(v, 10))
	}
	return v, nil
}

// std is the compiled default grammar. Built once at init; its hash
// anchors every v1 content key.
var std = func() *Generator {
	g, err := New(DefaultSpec())
	if err != nil {
		panic(err)
	}
	return g
}()

// Default returns the compiled default-grammar generator behind the
// "gen:v1" name scheme.
func Default() *Generator { return std }

// Generate returns the variant-th flag of the seed's family under the
// default grammar. Equivalent to Default().Flag(seed, variant).
func Generate(seed, variant uint64) (*flagspec.Flag, error) {
	return std.Flag(seed, variant)
}

// ContentKey rewrites a generated-flag name into its cache address:
// "gen[<hex of grammar hash>]:v1:<seed>:<variant>". The sweep layer
// substitutes this for the literal flag name when composing spec keys.
// Returns ok=false for names outside the scheme or malformed — callers
// keep the literal name and resolution fails loudly later.
func ContentKey(name string) (string, bool) {
	b, ok := AppendContentKey(nil, name)
	return string(b), ok
}

// AppendContentKey appends name's content key (see ContentKey) to dst.
// For a name that has none it returns dst unchanged and ok=false. A
// well-formed name costs no allocation beyond dst's growth.
func AppendContentKey(dst []byte, name string) ([]byte, bool) {
	if !IsName(name) {
		return dst, false
	}
	ref, err := ParseName(name)
	if err != nil {
		return dst, false
	}
	h := std.Hash()
	dst = hex.AppendEncode(append(dst, NamePrefix+"["...), h[:8])
	dst = strconv.AppendUint(append(dst, "]:v1:"...), ref.Seed, 10)
	return strconv.AppendUint(append(dst, ':'), ref.Variant, 10), true
}

// resolveCache memoizes resolved flags so hot sweep loops and the HTTP
// handlers re-use one immutable *Flag per name, like the builtin table.
// Bounded by a FIFO ring: a million-flag sweep cycles through, it never
// grows without bound.
const resolveCacheCap = 4096

var resolveCache = struct {
	sync.Mutex
	m       map[Ref]*flagspec.Flag
	ring    [resolveCacheCap]Ref
	n, head int
}{m: make(map[Ref]*flagspec.Flag, 64)}

// Resolve resolves a canonical generated-flag name to its flag. It is
// the function registered with flagspec for the "gen" prefix; malformed
// names yield errors wrapping ErrBadName.
func Resolve(name string) (*flagspec.Flag, error) {
	ref, err := ParseName(name)
	if err != nil {
		return nil, err
	}
	resolveCache.Lock()
	f := resolveCache.m[ref]
	resolveCache.Unlock()
	if f != nil {
		return f, nil
	}
	f, err = std.Flag(ref.Seed, ref.Variant)
	if err != nil {
		return nil, err
	}
	resolveCache.Lock()
	if have := resolveCache.m[ref]; have != nil {
		f = have // keep the first resolution pointer-stable
	} else if resolveCache.n < resolveCacheCap {
		resolveCache.ring[(resolveCache.head+resolveCache.n)%resolveCacheCap] = ref
		resolveCache.n++
		resolveCache.m[ref] = f
	} else {
		delete(resolveCache.m, resolveCache.ring[resolveCache.head])
		resolveCache.ring[resolveCache.head] = ref
		resolveCache.head = (resolveCache.head + 1) % resolveCacheCap
		resolveCache.m[ref] = f
	}
	resolveCache.Unlock()
	return f, nil
}

func init() {
	flagspec.RegisterDynamic(NamePrefix, Resolve)
}
