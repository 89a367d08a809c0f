// Package lbm implements the D3Q19 lattice-Boltzmann method of Sect. 2.4:
// a BGK collision with fused push streaming on a cubic domain with two
// toggle grids, in both data layouts the paper compares — the
// propagation-optimized "IJKv" structure-of-arrays layout and the
// interleaved "IvJK" layout whose odd row stride spreads the 19
// distribution-function streams across the memory controllers
// automatically. The package contains a real host solver (validated for
// mass conservation and Poiseuille channel flow) and a trace compiler for
// the simulated T2 that regenerates Fig. 7.
package lbm

import "fmt"

// Q is the number of discrete velocities of the D3Q19 model.
const Q = 19

// Velocity set: index 0 is the rest population, 1-6 the axis directions,
// 7-18 the face diagonals.
var (
	Cx = [Q]int{0, 1, -1, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 1, -1, 0, 0, 0, 0}
	Cy = [Q]int{0, 0, 0, 1, -1, 0, 0, 1, -1, -1, 1, 0, 0, 0, 0, 1, -1, 1, -1}
	Cz = [Q]int{0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 1, -1, -1, 1, 1, -1, -1, 1}
)

// W holds the lattice weights: 1/3 for rest, 1/18 axis, 1/36 diagonal.
var W = [Q]float64{
	1.0 / 3,
	1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18,
	1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36,
	1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36,
}

// Opp maps each velocity to its opposite, used by bounce-back walls.
var Opp [Q]int

func init() {
	for i := 0; i < Q; i++ {
		for j := 0; j < Q; j++ {
			if Cx[i] == -Cx[j] && Cy[i] == -Cy[j] && Cz[i] == -Cz[j] {
				Opp[i] = j
				break
			}
		}
	}
}

// Layout selects the memory order of the distribution-function array.
type Layout int

// The two layouts of Fig. 7.
const (
	// IJKv is the structure-of-arrays layout f(x,y,z,v): x fastest, v
	// slowest, so each distribution function is a separate contiguous
	// cube and the 19 streams sit (N+2)^3 doubles apart.
	IJKv Layout = iota
	// IvJK is the interleaved layout f(x,v,y,z): the 19 distribution
	// functions of one row follow each other, so concurrent streams sit
	// one padded row (an odd multiple of the interleave period for most
	// N) apart.
	IvJK
)

// Name returns the paper's name for the layout.
func (l Layout) Name() string {
	switch l {
	case IJKv:
		return "IJKv"
	case IvJK:
		return "IvJK"
	}
	return fmt.Sprintf("layout(%d)", int(l))
}

// Index returns the linear element index of distribution v at padded
// coordinates (x, y, z) for padded edge length p.
func (l Layout) Index(p, v, x, y, z int) int {
	switch l {
	case IJKv:
		return x + p*(y+p*(z+p*v))
	case IvJK:
		return x + p*(v+Q*(y+p*z))
	}
	panic(fmt.Sprintf("lbm: unknown layout %d", int(l)))
}

// VStride returns the element distance between consecutive distribution
// functions at a fixed site — the stream stride whose controller spread
// decides the aliasing behaviour (see core.PhaseSpread).
func (l Layout) VStride(p int) int {
	switch l {
	case IJKv:
		return p * p * p
	case IvJK:
		return p
	}
	panic(fmt.Sprintf("lbm: unknown layout %d", int(l)))
}

// RowStride returns the element distance between the same (v, x) position
// of two consecutive x-rows (y and y+1) — the per-row advance every one of
// the layout's streams shares, and the pitch of the row-granular fluid-cell
// mask.
func (l Layout) RowStride(p int) int {
	switch l {
	case IJKv:
		return p
	case IvJK:
		return Q * p
	}
	panic(fmt.Sprintf("lbm: unknown layout %d", int(l)))
}

// Size returns the element count of one toggle grid.
func (l Layout) Size(p int) int { return Q * p * p * p }

// Field is a host D3Q19 field on an N^3 interior with one ghost layer,
// two toggle grids, and a solid-cell mask (bounce-back walls).
type Field struct {
	N      int
	P      int // padded edge: N+2
	Layout Layout
	Omega  float64 // BGK relaxation rate
	// Force is a constant body-force acceleration along x (Guo-style
	// simplified forcing), used for channel-flow validation.
	Force float64
	// PeriodicX and PeriodicZ wrap streaming across the x and z faces,
	// turning the y-walled box into an infinite channel.
	PeriodicX, PeriodicZ bool

	grids [2][]float64
	solid []bool // p^3 mask, indexed x + p*(y + p*z)
	t     int    // current toggle
}

// NewField allocates a field of interior size n with all cells fluid.
func NewField(n int, layout Layout, omega float64) *Field {
	if n < 1 {
		panic(fmt.Sprintf("lbm: interior size %d", n))
	}
	if omega <= 0 || omega >= 2 {
		panic(fmt.Sprintf("lbm: BGK omega %g outside (0,2)", omega))
	}
	p := n + 2
	f := &Field{N: n, P: p, Layout: layout, Omega: omega}
	f.grids[0] = make([]float64, layout.Size(p))
	f.grids[1] = make([]float64, layout.Size(p))
	f.solid = make([]bool, p*p*p)
	return f
}

// SolidIndex returns the mask index of padded coordinates (x, y, z).
func (f *Field) SolidIndex(x, y, z int) int { return x + f.P*(y+f.P*z) }

// SetSolid marks a padded-coordinate cell as a bounce-back wall.
func (f *Field) SetSolid(x, y, z int) { f.solid[f.SolidIndex(x, y, z)] = true }

// WallsY marks the y = 1 and y = N planes as solid walls (a channel along
// x and z), the Poiseuille configuration.
func (f *Field) WallsY() {
	for z := 1; z <= f.N; z++ {
		for x := 1; x <= f.N; x++ {
			f.SetSolid(x, 1, z)
			f.SetSolid(x, f.N, z)
		}
	}
}

// Equilibrium returns the D3Q19 equilibrium distribution for direction v.
func Equilibrium(v int, rho, ux, uy, uz float64) float64 {
	cu := float64(Cx[v])*ux + float64(Cy[v])*uy + float64(Cz[v])*uz
	u2 := ux*ux + uy*uy + uz*uz
	return W[v] * rho * (1 + 3*cu + 4.5*cu*cu - 1.5*u2)
}

// Init sets every fluid cell of the current grid to the equilibrium of
// (rho, ux, uy, uz).
func (f *Field) Init(rho, ux, uy, uz float64) {
	g := f.grids[f.t]
	for z := 1; z <= f.N; z++ {
		for y := 1; y <= f.N; y++ {
			for x := 1; x <= f.N; x++ {
				for v := 0; v < Q; v++ {
					g[f.Layout.Index(f.P, v, x, y, z)] = Equilibrium(v, rho, ux, uy, uz)
				}
			}
		}
	}
}

// Moments returns density and momentum of the cell at padded (x, y, z) in
// the current grid.
func (f *Field) Moments(x, y, z int) (rho, jx, jy, jz float64) {
	g := f.grids[f.t]
	for v := 0; v < Q; v++ {
		fv := g[f.Layout.Index(f.P, v, x, y, z)]
		rho += fv
		jx += fv * float64(Cx[v])
		jy += fv * float64(Cy[v])
		jz += fv * float64(Cz[v])
	}
	return rho, jx, jy, jz
}

// Step performs one fused collide-and-push sweep into the other toggle
// grid, with half-way bounce-back at solid cells.
func (f *Field) Step() {
	src := f.grids[f.t]
	dst := f.grids[1-f.t]
	p := f.P
	var fl [Q]float64
	for z := 1; z <= f.N; z++ {
		for y := 1; y <= f.N; y++ {
			for x := 1; x <= f.N; x++ {
				if f.solid[f.SolidIndex(x, y, z)] {
					continue
				}
				var rho, ux, uy, uz float64
				for v := 0; v < Q; v++ {
					fv := src[f.Layout.Index(p, v, x, y, z)]
					fl[v] = fv
					rho += fv
					ux += fv * float64(Cx[v])
					uy += fv * float64(Cy[v])
					uz += fv * float64(Cz[v])
				}
				inv := 1 / rho
				ux *= inv
				uy *= inv
				uz *= inv
				for v := 0; v < Q; v++ {
					eq := Equilibrium(v, rho, ux, uy, uz)
					post := fl[v] + f.Omega*(eq-fl[v])
					// Simplified constant body force along x.
					post += 3 * W[v] * float64(Cx[v]) * f.Force * rho
					nx, ny, nz := x+Cx[v], y+Cy[v], z+Cz[v]
					if f.PeriodicX {
						if nx < 1 {
							nx = f.N
						} else if nx > f.N {
							nx = 1
						}
					}
					if f.PeriodicZ {
						if nz < 1 {
							nz = f.N
						} else if nz > f.N {
							nz = 1
						}
					}
					if f.solid[f.SolidIndex(nx, ny, nz)] {
						// Bounce back into the opposite direction locally.
						dst[f.Layout.Index(p, Opp[v], x, y, z)] = post
					} else {
						dst[f.Layout.Index(p, v, nx, ny, nz)] = post
					}
				}
			}
		}
	}
	f.t = 1 - f.t
}

// Run advances the field by steps sweeps.
func (f *Field) Run(steps int) {
	for i := 0; i < steps; i++ {
		f.Step()
	}
}

// Mass returns the total density over fluid cells.
func (f *Field) Mass() float64 {
	var m float64
	for z := 1; z <= f.N; z++ {
		for y := 1; y <= f.N; y++ {
			for x := 1; x <= f.N; x++ {
				if f.solid[f.SolidIndex(x, y, z)] {
					continue
				}
				rho, _, _, _ := f.Moments(x, y, z)
				m += rho
			}
		}
	}
	return m
}

// VelocityProfileX returns the mean x-velocity as a function of y across
// the channel — the Poiseuille parabola when WallsY and Force are set.
func (f *Field) VelocityProfileX() []float64 {
	prof := make([]float64, f.N)
	for y := 1; y <= f.N; y++ {
		var sum float64
		n := 0
		for z := 1; z <= f.N; z++ {
			for x := 1; x <= f.N; x++ {
				if f.solid[f.SolidIndex(x, y, z)] {
					continue
				}
				rho, jx, _, _ := f.Moments(x, y, z)
				sum += jx / rho
				n++
			}
		}
		if n > 0 {
			prof[y-1] = sum / float64(n)
		}
	}
	return prof
}
