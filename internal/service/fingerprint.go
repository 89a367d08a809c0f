package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/exp"
)

// fingerprint computes the canonical content address of a resolved sweep.
// The simulator is deterministic — a grid point's result is a pure
// function of (machine configuration, program, placement) — so two
// requests with equal fingerprints are guaranteed byte-identical
// responses, which is what makes the result cache and the singleflight
// group safe rather than merely probabilistic.
//
// The key hashes what the sweep computes, not what the request named:
//
//   - the figure name;
//   - the normalized scale, which sets array lengths the grid does not
//     show (the scaling study's grids are equal at both scales; only its
//     array length differs);
//   - the experiment's Machine stamp, the one written into the body;
//   - the experiment's chip configuration, rendered with %+v — the
//     machine every point runs on;
//   - every expanded grid point, each rendered canonically (sorted
//     parameter names, type-tagged scalar values) — the program and
//     placement axis.
//
// The requested profile name is not hashed. Every figure except scaling
// stamps its profile and runs on its configuration, so those figures keep
// one key per profile. The scaling study sweeps all profiles itself, with
// an empty stamp and a zero configuration (bench.Options.ScalingExp), so
// its result is the same whichever profile a request names, and one key
// per scale serves all of them.
//
// What stays out, and why: the sweep-pool job count and the request
// deadline are execution budget — results are invariant under both
// (pinned by the repo's determinism tests), so hashing them would only
// split the cache and defeat dedup. JSON field order and default-filled
// optional fields never reach the hash at all: requests are parsed into
// a struct and normalized before fingerprinting. All of this is pinned
// by the property tests in fingerprint_test.go.
func fingerprint(r *Resolved) string {
	h := sha256.New()
	e := &r.Figure.Exp
	fmt.Fprintf(h, "figure=%s\n", r.Figure.Name)
	fmt.Fprintf(h, "scale=%s\n", r.Req.Scale)
	fmt.Fprintf(h, "machine=%s\n", e.Machine)
	fmt.Fprintf(h, "cfg=%+v\n", e.Cfg)
	writePoints(h, e.Points())
	return hex.EncodeToString(h.Sum(nil))
}

// writePoints renders the expanded grid canonically: points in grid
// order, parameters sorted by name, scalar values rendered with an
// explicit type tag so 1 (int) and "1" (string) cannot collide.
func writePoints(w io.Writer, pts []exp.Point) {
	names := make([]string, 0, 8)
	for _, p := range pts {
		fmt.Fprintf(w, "p%d:", p.Index)
		names = names[:0]
		for n := range p.Params {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%s=%s;", n, canonScalar(p.Params[n]))
		}
		io.WriteString(w, "\n")
	}
}

// canonScalar renders one axis value deterministically. The integer kinds
// share a rendering (exp.Point's accessors treat int and int64
// interchangeably, so the hash must too).
func canonScalar(v any) string {
	switch x := v.(type) {
	case int:
		return "i" + strconv.FormatInt(int64(x), 10)
	case int64:
		return "i" + strconv.FormatInt(x, 10)
	case float64:
		return "f" + strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return "s" + strconv.Quote(x)
	case bool:
		return "b" + strconv.FormatBool(x)
	}
	// Axis values are documented to be one of the five kinds above; an
	// unknown kind is a harness bug and must not silently alias.
	return fmt.Sprintf("?%T:%v", v, v)
}
