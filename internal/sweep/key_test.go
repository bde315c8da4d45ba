package sweep

// Content-address pins. Spec.Key names journal frames, snapshots and
// result-log frames on disk, and the dispatcher re-derives it when it
// decodes a journaled job, so one changed byte would make every existing
// data directory refuse its journal. refKey and refLabel keep the
// fmt-built encoding as the reference; the golden literals were recorded
// from it.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"flagsim/internal/core"
	"flagsim/internal/fault"
	"flagsim/internal/flaggen"
	"flagsim/internal/implement"
	"flagsim/internal/sim"
)

// refContentKey is the fmt-built content key of a generated-flag name
// that flaggen.AppendContentKey must reproduce inside Key.
func refContentKey(name string) (string, bool) {
	ref, err := flaggen.ParseName(name)
	if err != nil {
		return "", false
	}
	h := flaggen.Default().Hash()
	return fmt.Sprintf("%s[%x]:v1:%d:%d", flaggen.NamePrefix, h[:8], ref.Seed, ref.Variant), true
}

// refKey is the fmt-built content address Key must reproduce.
func refKey(s Spec) [sha256.Size]byte {
	flag := s.Flag
	if ck, ok := refContentKey(flag); ok {
		flag = ck
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sweep-v1|exec=%d|flag=%s|w=%d|h=%d|scen=%d|workers=%d|kind=%d|percolor=%d|seed=%d|setup=%d|hold=%d|policy=%d|jitter=%x|skills=",
		s.Exec, flag, s.W, s.H, s.Scenario, s.Workers, s.Kind, s.PerColor,
		s.Seed, s.Setup, s.Hold, s.Policy, math.Float64bits(s.Jitter))
	for _, sk := range s.Skills {
		fmt.Fprintf(&b, "%x,", math.Float64bits(sk))
	}
	if s.Faults != nil {
		fmt.Fprintf(&b, "|faults=%x", s.Faults.Key())
	}
	return sha256.Sum256([]byte(b.String()))
}

// refLabel is the fmt-built label Label must reproduce.
func refLabel(s Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s", s.Exec, s.Flag)
	if s.Exec == ExecDynamic {
		fmt.Fprintf(&b, "/%s", s.Policy)
	} else {
		fmt.Fprintf(&b, "/%s", s.Scenario)
	}
	if s.Workers > 0 {
		fmt.Fprintf(&b, "/p=%d", s.Workers)
	}
	fmt.Fprintf(&b, "/%s", s.Kind)
	if s.PerColor > 1 {
		fmt.Fprintf(&b, "x%d", s.PerColor)
	}
	fmt.Fprintf(&b, "/seed=%d", s.Seed)
	if s.Faults != nil {
		fmt.Fprintf(&b, "/faults=%s", s.Faults.Label())
	}
	return b.String()
}

func mustPreset(tb testing.TB, name string, seed uint64) *fault.Plan {
	tb.Helper()
	p, err := fault.Preset(name, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// goldenSpecs varies one field at a time from a base spec, covering
// every field of the encoding and every branch of the label, then sets
// them all at once.
func goldenSpecs(tb testing.TB) []struct {
	name string
	spec Spec
} {
	base := Spec{Flag: "mauritius", Kind: implement.ThickMarker, Seed: 1}
	with := func(f func(*Spec)) Spec {
		s := base
		f(&s)
		return s
	}
	return []struct {
		name string
		spec Spec
	}{
		{"zero", Spec{}},
		{"base", base},
		{"exec-steal", with(func(s *Spec) { s.Exec = ExecSteal })},
		{"exec-dynamic", with(func(s *Spec) { s.Exec, s.Workers = ExecDynamic, 4 })},
		{"exec-dynamic-affinity", with(func(s *Spec) { s.Exec, s.Policy = ExecDynamic, sim.PullColorAffinity })},
		{"exec-unknown", with(func(s *Spec) { s.Exec = Exec(9) })},
		{"flag-builtin", with(func(s *Spec) { s.Flag = "greatbritain" })},
		{"flag-gen", with(func(s *Spec) { s.Flag = "gen:v1:42:0" })},
		{"flag-gen-variant", with(func(s *Spec) { s.Flag = "gen:v1:7:3" })},
		{"wh", with(func(s *Spec) { s.W, s.H = 12, 8 })},
		{"wh-negative", with(func(s *Spec) { s.W, s.H = -1, -30 })},
		{"scen-2", with(func(s *Spec) { s.Scenario = core.S2 })},
		{"scen-3", with(func(s *Spec) { s.Scenario = core.S3 })},
		{"scen-4", with(func(s *Spec) { s.Scenario = core.S4 })},
		{"scen-4-pipelined", with(func(s *Spec) { s.Scenario = core.S4Pipelined })},
		{"scen-unknown", with(func(s *Spec) { s.Scenario = core.ScenarioID(200) })},
		{"workers", with(func(s *Spec) { s.Workers = 4 })},
		{"workers-negative", with(func(s *Spec) { s.Workers = -2 })},
		{"kind-dauber", with(func(s *Spec) { s.Kind = implement.Dauber })},
		{"kind-thin", with(func(s *Spec) { s.Kind = implement.ThinMarker })},
		{"kind-crayon", with(func(s *Spec) { s.Kind = implement.Crayon })},
		{"kind-unknown", with(func(s *Spec) { s.Kind = implement.Kind(255) })},
		{"percolor-1", with(func(s *Spec) { s.PerColor = 1 })},
		{"percolor-3", with(func(s *Spec) { s.PerColor = 3 })},
		{"seed-0", with(func(s *Spec) { s.Seed = 0 })},
		{"seed-2^63", with(func(s *Spec) { s.Seed = 1 << 63 })},
		{"seed-max", with(func(s *Spec) { s.Seed = math.MaxUint64 })},
		{"setup", with(func(s *Spec) { s.Setup = 5 * time.Second })},
		{"setup-negative", with(func(s *Spec) { s.Setup = -time.Nanosecond })},
		{"hold-eager", with(func(s *Spec) { s.Hold = sim.EagerRelease })},
		{"hold-unknown", with(func(s *Spec) { s.Hold = sim.HoldPolicy(7) })},
		{"policy-affinity", with(func(s *Spec) { s.Policy = sim.PullColorAffinity })},
		{"policy-unknown-dynamic", with(func(s *Spec) { s.Exec, s.Policy = ExecDynamic, sim.PullPolicy(9) })},
		{"jitter", with(func(s *Spec) { s.Jitter = 0.15 })},
		{"jitter-negative", with(func(s *Spec) { s.Jitter = -0.25 })},
		{"jitter-negative-zero", with(func(s *Spec) { s.Jitter = math.Copysign(0, -1) })},
		{"jitter-nan", with(func(s *Spec) { s.Jitter = math.NaN() })},
		{"jitter-inf", with(func(s *Spec) { s.Jitter = math.Inf(1) })},
		{"skills", with(func(s *Spec) { s.Skills = []float64{1, 0.5, 1.25, 2} })},
		{"skills-empty", with(func(s *Spec) { s.Skills = []float64{} })},
		{"skills-odd", with(func(s *Spec) { s.Skills = []float64{0, math.Copysign(0, -1), math.NaN(), -3} })},
		{"faults-none", with(func(s *Spec) { s.Faults = mustPreset(tb, "none", 5) })},
		{"faults-light", with(func(s *Spec) { s.Faults = mustPreset(tb, "light", 7) })},
		{"faults-heavy", with(func(s *Spec) { s.Faults = mustPreset(tb, "heavy", 7) })},
		{"everything", Spec{
			Exec: ExecDynamic, Flag: "gen:v1:9:2", W: 20, H: 10, Scenario: core.S4Pipelined,
			Workers: 3, Kind: implement.Crayon, PerColor: 2, Seed: math.MaxUint64 - 1,
			Setup: 90 * time.Second, Hold: sim.EagerRelease, Policy: sim.PullColorAffinity,
			Skills: []float64{1.5, 0.75, 1}, Jitter: 0.3, Faults: mustPreset(tb, "heavy", 11),
		}},
	}
}

// keyGolden holds each golden spec's Key (hex) and Label.
var keyGolden = map[string][2]string{
	"zero":                   {"84fe64ff97747b2dcc4cb5e77df534b9734653c302cdda8c40cec8ab6414b224", "static//scenario-1/dauber/seed=0"},
	"base":                   {"3a129339799a4ed453f486741aa1451e79d13211326d795fa3d69beef495b5db", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"exec-steal":             {"d14c824736ffd67bc9367a30b8632d2cb0233247982e787a7bd7b428964359ce", "steal/mauritius/scenario-1/thick-marker/seed=1"},
	"exec-dynamic":           {"ebd9cb27a78f3768f75e7758c6d6ca223d9e209e6cac31398d04b17a6bc02337", "dynamic/mauritius/pull-ordered/p=4/thick-marker/seed=1"},
	"exec-dynamic-affinity":  {"216cc87876c390e16d9387352f98cbd82f3c36f5ece9087c6056638d5ac29cfa", "dynamic/mauritius/pull-color-affinity/thick-marker/seed=1"},
	"exec-unknown":           {"cc5055e9b6221ac44e3e59957be07a99972e2978d65735f125edbb168c4ea39e", "exec(9)/mauritius/scenario-1/thick-marker/seed=1"},
	"flag-builtin":           {"ac3eb357535cf6ff2ca0d269e4a9be46db630a5e055821b9f3b379f4ea3c59e8", "static/greatbritain/scenario-1/thick-marker/seed=1"},
	"flag-gen":               {"218f460fd5c0d331df8d8ca3cf8ba53510ad6648dd0ca5519f5bd421b2a9e90c", "static/gen:v1:42:0/scenario-1/thick-marker/seed=1"},
	"flag-gen-variant":       {"5db37a658702828ceb9205c070bc3b03337a86c28af58a41454912c294c00141", "static/gen:v1:7:3/scenario-1/thick-marker/seed=1"},
	"wh":                     {"9ae7411295248d0b55e03e930ff93a6dbec0aaf7965c68259fb3110f139e13a8", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"wh-negative":            {"dd3fff42f2f34a52da7850d831fc63c59406cb0cfa362fa41753dbf02efb0a38", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"scen-2":                 {"86c82987e04d991c3fb9ba5afef98f29c9e7ca37f1baa25508c9e84d3becb657", "static/mauritius/scenario-2/thick-marker/seed=1"},
	"scen-3":                 {"33a580fc3cbf5d9f954bca262470a026fa814a9aeac1a547e579458a0191fe02", "static/mauritius/scenario-3/thick-marker/seed=1"},
	"scen-4":                 {"c39aa06e288671b118c3cc80a467ab3457fa7c9dd59a328db4d768ba33978036", "static/mauritius/scenario-4/thick-marker/seed=1"},
	"scen-4-pipelined":       {"e6890e0e2be338d352ce58a4c1e536d038e08c82cf3c5bd41a2f754aab36e3fa", "static/mauritius/scenario-4-pipelined/thick-marker/seed=1"},
	"scen-unknown":           {"f2966e284fd3a232757e9200f0f236cfc0616cd71ee48d1f8ee0483eec7079ab", "static/mauritius/scenario(200)/thick-marker/seed=1"},
	"workers":                {"80f436691b1317f7c3710fb2c9b00fa5a32cb7cd4869adc8fe48ffd184c141cb", "static/mauritius/scenario-1/p=4/thick-marker/seed=1"},
	"workers-negative":       {"a3c3634bacacb187c3cfc1f06bd1a6edb5531834941332621441cf885fd2cd00", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"kind-dauber":            {"495f90a7f5aa83c93f0483bc6abcf333fa8c3e5e9a89a440cbd77a2bfa814c27", "static/mauritius/scenario-1/dauber/seed=1"},
	"kind-thin":              {"87fc15434cd5161f95796ac3eb6376b51556876706606cc78806d8e0c9cc54c7", "static/mauritius/scenario-1/thin-marker/seed=1"},
	"kind-crayon":            {"54e31790895d8ed0a41f63eaadb7e6f40d58e875eb84ee54135fc96f6cd993f9", "static/mauritius/scenario-1/crayon/seed=1"},
	"kind-unknown":           {"d22d40f288130c7b78c957c824c69e1d9094a0c5c9650fcdcf7ff845f985274a", "static/mauritius/scenario-1/kind(255)/seed=1"},
	"percolor-1":             {"034af37feb9df9b160a2618d30c949bd7fd65210b2f93a86d3fa29ba61ea8b85", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"percolor-3":             {"81848cf37111276f8854728113388c74c71b055d90a4d6056c6cea01caace9b5", "static/mauritius/scenario-1/thick-markerx3/seed=1"},
	"seed-0":                 {"37233491b84ae20324922428637595a477745cb1a31950ef8ab281d9a4c230a5", "static/mauritius/scenario-1/thick-marker/seed=0"},
	"seed-2^63":              {"9b7f94389f61669e3604874da1cd152d79f5e7726083b86ed57e6f43d1de96f2", "static/mauritius/scenario-1/thick-marker/seed=9223372036854775808"},
	"seed-max":               {"e433a6a0cdb8752b6d7c05fa348e661aa4bd8cf7b271e299a9d44f285935c93d", "static/mauritius/scenario-1/thick-marker/seed=18446744073709551615"},
	"setup":                  {"e0263327952453d7e57dc6fd4c5b59fbb1434cc204de79ee187c6a9d5d0e9820", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"setup-negative":         {"8a227769367678193d18ae02d61355046b31acf215d6feb5e5123b59f5199f4d", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"hold-eager":             {"d2ee61a1d0604e44e1acdabdfd6c50b3195ce7f25a0017a7c319ce33a1dab0e8", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"hold-unknown":           {"d36851634d824af422ca7f8030dd3e086df58d50fa2ea8c9870e389cd2f6a7a8", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"policy-affinity":        {"aa9c6dd1c4b939a489bcc11e77a866bf06ec7d15a54a3a2dfb6732a08ee16e37", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"policy-unknown-dynamic": {"8defbf349ff372c2a8b849fc39ace1202ed680df12c79a75a3c8461bedc765db", "dynamic/mauritius/pull-policy(9)/thick-marker/seed=1"},
	"jitter":                 {"0c507f5bba5deac50010e210782b5de9c360d08e63e30eb75bafb2bc60d5e1b3", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"jitter-negative":        {"47834b9afe0fe2d2f6378790c63c927ac1a38eef889dab60b119c8f08cd3e0a4", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"jitter-negative-zero":   {"ae2cbb71d418a64cbdb039cfde91e9d531eb5364ce98f26586d83c48b29fe605", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"jitter-nan":             {"893abdf2f80b5aee0730acafe98b70d06e61485040c3719934268db4754b84e3", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"jitter-inf":             {"7406344b019a99c32292b6839c2679ede9a61deafa4b35fc64b1ed50d5736d34", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"skills":                 {"f18ec958eac4ccfc1103ac2a5e8dc5b22ab2f41aa9b73a93a4c501f28a3e848b", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"skills-empty":           {"3a129339799a4ed453f486741aa1451e79d13211326d795fa3d69beef495b5db", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"skills-odd":             {"f6b0001f4c6a74a0295553d2f45fb2076e46cb0aaf28029239fccb72b67d7220", "static/mauritius/scenario-1/thick-marker/seed=1"},
	"faults-none":            {"5a632b6de3ec0495fd53c21b30268f60ce4c783c8d334e40dbd37cc6a1142bf2", "static/mauritius/scenario-1/thick-marker/seed=1/faults=none"},
	"faults-light":           {"24a991762cadf395ba3271241cb7db3e5f0fdfe780f21a78e56dc1687e779205", "static/mauritius/scenario-1/thick-marker/seed=1/faults=seed7/degrade0.05x2/handoff0.1@2s"},
	"faults-heavy":           {"ea40af20c3c57ba9ceb112e06581fe4f467c3012a3b195c38cbd0feb9e58bfa6", "static/mauritius/scenario-1/thick-marker/seed=1/faults=seed7/stalls2/degrade0.15x3/break0.02/repaint0.05/handoff0.25@4s"},
	"everything":             {"8b5bbeb132d72b0057916ec1c2e7b99050cd32df2ddd13a91b57484226eaf4ef", "dynamic/gen:v1:9:2/pull-color-affinity/p=3/crayonx2/seed=18446744073709551614/faults=seed11/stalls2/degrade0.15x3/break0.02/repaint0.05/handoff0.25@4s"},
}

// TestSpecKeyGolden pins every golden spec's Key and Label to the
// recorded literals and to the fmt-built reference.
func TestSpecKeyGolden(t *testing.T) {
	specs := goldenSpecs(t)
	if len(keyGolden) != len(specs) {
		t.Fatalf("%d golden literals for %d specs", len(keyGolden), len(specs))
	}
	for _, tc := range specs {
		want, ok := keyGolden[tc.name]
		if !ok {
			t.Fatalf("%s: no golden literal", tc.name)
		}
		key := tc.spec.Key()
		if got := hex.EncodeToString(key[:]); got != want[0] {
			t.Errorf("%s: Key %s, want %s", tc.name, got, want[0])
		}
		if got := tc.spec.Label(); got != want[1] {
			t.Errorf("%s: Label %q, want %q", tc.name, got, want[1])
		}
		if key != refKey(tc.spec) {
			t.Errorf("%s: Key differs from the fmt-built reference", tc.name)
		}
		if got, ref := tc.spec.Label(), refLabel(tc.spec); got != ref {
			t.Errorf("%s: Label %q, reference %q", tc.name, got, ref)
		}
	}
}

// FuzzSpecKey checks Key and Label against the fmt-built reference on
// arbitrary field values, including out-of-range enums, negative sizes,
// NaN and negative-zero floats, and any flag string.
func FuzzSpecKey(f *testing.F) {
	f.Add(uint8(0), "mauritius", 0, 0, uint8(0), 0, uint8(1), 0, uint64(1), int64(0), uint8(0), uint8(0), uint64(0), []byte(nil), uint8(0))
	f.Add(uint8(2), "gen:v1:42:0", 12, 8, uint8(4), 4, uint8(3), 3, uint64(1)<<63, int64(5e9), uint8(1), uint8(1),
		math.Float64bits(0.15), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0xe0, 0x3f}, uint8(2))
	f.Add(uint8(9), "gen:v1:x:0", -1, -7, uint8(200), -3, uint8(255), -1, uint64(math.MaxUint64), int64(-1), uint8(7), uint8(9),
		math.Float64bits(math.NaN()), []byte{1, 2, 3}, uint8(1))
	f.Add(uint8(1), "", 0, 0, uint8(0), 0, uint8(0), 1, uint64(0), int64(0), uint8(0), uint8(0),
		math.Float64bits(math.Copysign(0, -1)), []byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, exec uint8, flag string, w, h int, scen uint8, workers int, kind uint8,
		perColor int, seed uint64, setup int64, hold, policy uint8, jitter uint64, skills []byte, faults uint8) {
		s := Spec{
			Exec: Exec(exec), Flag: flag, W: w, H: h, Scenario: core.ScenarioID(scen), Workers: workers,
			Kind: implement.Kind(kind), PerColor: perColor, Seed: seed, Setup: time.Duration(setup),
			Hold: sim.HoldPolicy(hold), Policy: sim.PullPolicy(policy), Jitter: math.Float64frombits(jitter),
		}
		for ; len(skills) >= 8; skills = skills[8:] {
			s.Skills = append(s.Skills, math.Float64frombits(binary.LittleEndian.Uint64(skills)))
		}
		if names := fault.PresetNames(); int(faults) < len(names) {
			s.Faults = mustPreset(t, names[faults], seed)
		}
		if s.Key() != refKey(s) {
			t.Fatalf("Key differs from the fmt-built reference for %+v", s)
		}
		if got, ref := s.Label(), refLabel(s); got != ref {
			t.Fatalf("Label %q, reference %q", got, ref)
		}
	})
}
