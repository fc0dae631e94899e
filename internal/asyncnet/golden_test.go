package asyncnet

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"odeproto/internal/core"
	"odeproto/internal/endemic"
	"odeproto/internal/ode"
)

// Golden values for virtual-mode asyncnet. Virtual results are
// content-addressed, cached and persisted by internal/service, so the
// exact event stream is part of the contract: any change to the
// scheduler, the draw order or the per-segment seeding must leave these
// fingerprints untouched. The determinism tests only compare a run with
// itself; these pin the values.
const (
	// endemicSource is the §4.1 endemic system as the service compiles it
	// (β=4, γ=1, α=0.01).
	endemicSource = "x' = -4*x*y + 0.01*z\ny' = 4*x*y - y\nz' = y - 0.01*z"
	// lvTokenSource is an LV-style majority system whose cross terms
	// lack the owner variable, so the majority converts the minority
	// through token random walks (§6 Tokenizing).
	lvTokenSource = "x' = 3*x*z - 3*x*y - y^2\ny' = 3*y*z - 3*x*y - x^2\n" +
		"z' = -3*x*z - 3*y*z + 3*x*y + 3*x*y + y^2 + x^2"
)

// fingerprint renders counts (in protocol state order), transitions
// (sorted by edge) and the message total as one comparable line.
func fingerprint(states []ode.Var, counts map[ode.Var]int, transitions map[[2]ode.Var]int, messages int) string {
	var b strings.Builder
	for _, s := range states {
		fmt.Fprintf(&b, "%s=%d ", s, counts[s])
	}
	edges := make([]string, 0, len(transitions))
	for e, n := range transitions {
		edges = append(edges, fmt.Sprintf("%s>%s=%d", e[0], e[1], n))
	}
	sort.Strings(edges)
	fmt.Fprintf(&b, "| %s | msgs=%d", strings.Join(edges, " "), messages)
	return b.String()
}

func TestVirtualGolden(t *testing.T) {
	endemicProto := mustTranslate(t, endemicSource, core.Options{})
	lvProto := mustTranslate(t, lvTokenSource, core.Options{P: 0.2})

	t.Run("runner-endemic-service-shaped", func(t *testing.T) {
		r, err := NewRunner(Config{
			N: 600, Protocol: endemicProto,
			Initial:  map[ode.Var]int{"x": 540, "y": 60},
			Seed:     42,
			DropProb: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The service's recording hook makes the harness step period by
		// period; a coarse tail exercises multi-period segments too.
		for i := 0; i < 4; i++ {
			r.Step()
		}
		r.Run(5)
		r.Run(3)
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		got := fingerprint(endemicProto.States, r.Counts(), r.TransitionsTotal(), r.MessagesSent())
		const want = "x=40 y=71 z=489 | x>y=504 y>z=493 z>x=4 | msgs=5078"
		if got != want {
			t.Fatalf("fingerprint changed:\ngot:  %s\nwant: %s", got, want)
		}
	})

	t.Run("runner-lv-tokens-lossy", func(t *testing.T) {
		r, err := NewRunner(Config{
			N: 300, Protocol: lvProto,
			Initial:  map[ode.Var]int{"x": 180, "y": 120},
			Seed:     7,
			Drift:    0.2,
			DropProb: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Run(6)
		r.Step()
		r.Run(10)
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		got := fingerprint(lvProto.States, r.Counts(), r.TransitionsTotal(), r.MessagesSent())
		const want = "x=292 y=0 z=8 | x>z=159 y>z=161 z>x=271 z>y=41 | msgs=19435"
		if got != want {
			t.Fatalf("fingerprint changed:\ngot:  %s\nwant: %s", got, want)
		}
	})

	t.Run("run-overflow-delays", func(t *testing.T) {
		// Figure 1's push action still converts when its delivery lands
		// long after the sender's timeouts, so late deliveries matter.
		fig1, err := endemic.NewFigure1Protocol(endemic.Params{B: 2, Gamma: 0.2, Alpha: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			N: 120, Protocol: fig1,
			Initial:    map[ode.Var]int{endemic.Receptive: 100, endemic.Stash: 20},
			Seed:       5,
			Periods:    25,
			BasePeriod: time.Millisecond,
			// Far past the calendar ring's span: every delivery is filed
			// in the overflow heap first.
			MaxDelay: 300 * time.Millisecond,
			DropProb: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := fingerprint(fig1.States, res.Counts, res.Transitions, res.MessagesSent)
		const want = "x=20 y=92 z=8 | x>y=98 y>z=26 z>x=18 | msgs=10157"
		if got != want {
			t.Fatalf("fingerprint changed:\ngot:  %s\nwant: %s", got, want)
		}
	})
}
