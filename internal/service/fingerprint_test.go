package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/exp"
	"repro/internal/machine"
)

// resolveBody parses a raw JSON request body (so field order and explicit
// zero values survive to the decoder, exactly as over HTTP) and resolves
// it with the server-side defaults the tests assume.
func resolveBody(t *testing.T, body string) *Resolved {
	t.Helper()
	var req SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	res, err := Resolve(req, nil, 4, time.Minute)
	if err != nil {
		t.Fatalf("resolve %s: %v", body, err)
	}
	return res
}

// TestFingerprintFieldOrderAndDefaultsInvariant: the canonical key must not
// depend on JSON field order, nor on whether optional fields are omitted
// or spelled out with their default values.
func TestFingerprintFieldOrderAndDefaultsInvariant(t *testing.T) {
	bodies := []string{
		`{"figure":"fig2"}`,
		`{"scale":"full","figure":"fig2"}`,
		`{"machine":"t2","figure":"fig2"}`,
		`{"figure":"fig2","scale":"full","machine":"t2","jobs":0,"timeout_ms":0}`,
		`{"timeout_ms":0,"jobs":0,"machine":"t2","scale":"full","figure":"fig2"}`,
		`{"jobs":0,"figure":"fig2","timeout_ms":0,"machine":"t2","scale":"full"}`,
	}
	want := resolveBody(t, bodies[0]).Key
	for _, b := range bodies[1:] {
		if got := resolveBody(t, b).Key; got != want {
			t.Errorf("fingerprint differs for equivalent request %s:\n got %s\nwant %s", b, got, want)
		}
	}
}

// TestFingerprintExecutionBudgetExcluded: jobs and the timeout never change
// a result byte, so they must not split the cache.
func TestFingerprintExecutionBudgetExcluded(t *testing.T) {
	base := resolveBody(t, `{"figure":"fig4"}`).Key
	for _, b := range []string{
		`{"figure":"fig4","jobs":1}`,
		`{"figure":"fig4","jobs":7}`,
		`{"figure":"fig4","timeout_ms":60000}`,
		`{"figure":"fig4","jobs":3,"timeout_ms":1500}`,
	} {
		if got := resolveBody(t, b).Key; got != base {
			t.Errorf("execution budget leaked into fingerprint: %s -> %s, base %s", b, got, base)
		}
	}
}

// TestResolveTimeoutClamp: the requested timeout is honoured up to the
// server's ceiling (time.Minute in resolveBody) and clamped above it — also
// for values so large that converting them to a Duration would overflow.
func TestResolveTimeoutClamp(t *testing.T) {
	for _, c := range []struct {
		body string
		want time.Duration
	}{
		{`{"figure":"fig2"}`, time.Minute},
		{`{"figure":"fig2","timeout_ms":0}`, time.Minute},
		{`{"figure":"fig2","timeout_ms":1500}`, 1500 * time.Millisecond},
		{`{"figure":"fig2","timeout_ms":60000}`, time.Minute},
		{`{"figure":"fig2","timeout_ms":60001}`, time.Minute},
		{`{"figure":"fig2","timeout_ms":18446744073710}`, time.Minute},
		{`{"figure":"fig2","timeout_ms":9223372036854775807}`, time.Minute},
	} {
		if got := resolveBody(t, c.body).Timeout; got != c.want {
			t.Errorf("%s: timeout %v, want %v", c.body, got, c.want)
		}
	}
}

// TestFingerprintDistinguishesResultAxes: anything that changes what is
// simulated — figure, grid scale, machine profile — must change the key,
// for every figure of the registry. The one exception is the scaling
// study, which sweeps every profile itself: it must share one key per
// scale across all profiles. Over the default registry that leaves 82
// keys for the 96 (figure x scale x profile) requests.
func TestFingerprintDistinguishesResultAxes(t *testing.T) {
	owner := map[string]string{} // key → the request that claimed it
	claim := func(key, req string) {
		if prev, ok := owner[key]; ok {
			t.Errorf("%s collides with %s", req, prev)
		}
		owner[key] = req
	}
	requests := 0
	for _, f := range bench.Figures(bench.Small()) {
		for _, scale := range []string{"small", "full"} {
			var first string
			for i, p := range machine.Names() {
				requests++
				req := fmt.Sprintf(`{"figure":%q,"scale":%q,"machine":%q}`, f.Name, scale, p)
				key := resolveBody(t, req).Key
				switch {
				case f.Name != "scaling":
					claim(key, req)
				case i == 0:
					first = key
					claim(key, req)
				case key != first:
					t.Errorf("%s: key differs from the other profiles'; the scaling study does not depend on the profile", req)
				}
			}
		}
	}
	if requests != 96 || len(owner) != 82 {
		t.Errorf("%d requests map to %d keys, want 96 requests on 82 keys", requests, len(owner))
	}
}

// TestScalingSharedKeyIsSound pins why scaling may share one key across
// profiles: the same small sweep requested on t2 and on xor marshals to
// identical bytes.
func TestScalingSharedKeyIsSound(t *testing.T) {
	var bodies [][]byte
	for _, m := range []string{"t2", "xor"} {
		res := resolveBody(t, fmt.Sprintf(`{"figure":"scaling","scale":"small","machine":%q}`, m))
		out, err := exp.Runner{Jobs: 2}.Run(res.Figure.Exp)
		if err != nil {
			t.Fatal(err)
		}
		b, err := out.JSON()
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("scaling on t2 and on xor marshal differently (%d vs %d bytes)", len(bodies[0]), len(bodies[1]))
	}
}

// TestFingerprintPlacementDistinct: two figures identical except for one
// placement-axis value must not share a key (the placement axis enters
// through the expanded grid points).
func TestFingerprintPlacementDistinct(t *testing.T) {
	regFor := func(placement string) Registry {
		return func(o bench.Options) []bench.Figure {
			return []bench.Figure{{
				Name: "unit",
				Exp: exp.Experiment{
					Name: "unit",
					Grid: exp.Grid{exp.Strs("placement", placement), exp.Ints("n", 64, 128)},
				},
			}}
		}
	}
	req := SweepRequest{Figure: "unit"}
	plain, err := Resolve(req, regFor("plain"), 4, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := Resolve(req, regFor("segmented"), 4, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Key == seg.Key {
		t.Errorf("placement axis value missing from fingerprint: both keys %s", plain.Key)
	}
}

// TestCanonScalarTypeTags: scalar renderings must be injective across
// kinds (1 vs "1" vs true) but unify the integer kinds, matching the
// typed accessors on exp.Point.
func TestCanonScalarTypeTags(t *testing.T) {
	if canonScalar(1) == canonScalar("1") {
		t.Error("int 1 and string \"1\" alias")
	}
	if canonScalar(1) == canonScalar(1.0) {
		t.Error("int 1 and float 1.0 alias")
	}
	if canonScalar(1) == canonScalar(true) {
		t.Error("int 1 and bool true alias")
	}
	if canonScalar(int(5)) != canonScalar(int64(5)) {
		t.Error("int 5 and int64 5 must share a rendering")
	}
}
