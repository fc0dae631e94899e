package sim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"

	"odeproto/internal/core"
	"odeproto/internal/endemic"
	"odeproto/internal/lv"
	"odeproto/internal/ode"
	"odeproto/internal/sim"
)

// goldenCase is one row of the agent-engine golden matrix. Every row runs
// serially (Shards 0) and at its sharded K, and each run is reduced to a
// sha256 fingerprint of everything the engine reports.
type goldenCase struct {
	name    string
	proto   func(t *testing.T) *core.Protocol
	n       int
	initial map[ode.Var]int
	cfg     func(c *sim.Config) // optional extra settings
	shards  int                 // K for the sharded run
	// perturb, when set, runs before each period's Step (period = number
	// of completed periods) to exercise Kill/Freeze/Revive and draws made
	// through Engine.Rand between periods.
	perturb func(e *sim.Engine, period int)
	serial  string // fingerprint at Shards 0
	sharded string // fingerprint at Shards = shards
}

func goldenProto(t *testing.T, src string, params map[string]float64) *core.Protocol {
	t.Helper()
	sys, err := ode.Parse(src, params)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.Translate(sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return proto
}

func goldenEndemic(t *testing.T) *core.Protocol {
	proto, err := endemic.NewFrameworkProtocol(endemic.Params{B: 2, Gamma: 0.5, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return proto
}

func goldenTokens(t *testing.T) *core.Protocol {
	return goldenProto(t, "x' = -y^2\ny' = y^2", nil)
}

var goldenCases = []goldenCase{
	{
		name: "endemic", proto: goldenEndemic, n: 2000, shards: 4,
		initial: map[ode.Var]int{"x": 1700, "y": 200, "z": 100},
		serial:  "7c9788b629534b9c6a1af5afbce91ad089d790693943816734eb315e7a373726",
		sharded: "476ca1836765f239064cf19ad7f9f55d722fa1a91cd1f612e86f34e7e0cbf408",
	},
	{
		name: "lv", n: 2000, shards: 3,
		proto: func(t *testing.T) *core.Protocol {
			proto, err := lv.NewProtocol(0.05)
			if err != nil {
				t.Fatal(err)
			}
			return proto
		},
		initial: map[ode.Var]int{"x": 1100, "y": 800, "z": 100},
		serial:  "d9355e152301a827ecabd4c07854cfe7f3b9069dcf71a87bdcb59ff82025085e",
		sharded: "1a693ed7f9434d4483682c7fddbe114065d5fb03613054ea601b4b8c21f5aa9b",
	},
	{
		name: "loss-0.1", proto: goldenEndemic, n: 2000, shards: 4,
		initial: map[ode.Var]int{"x": 1700, "y": 200, "z": 100},
		cfg:     func(c *sim.Config) { c.MessageLoss = 0.1 },
		serial:  "dc088f2c6417e983b0f33781b41530083e7b269a84eb218ec4639f300a0db455",
		sharded: "93474ef0db3b37edbed02d39394086dbe7d09dafb4adcc977d064e6205ec1e6d",
	},
	{
		name: "views-11", proto: goldenEndemic, n: 2000, shards: 3,
		initial: map[ode.Var]int{"x": 1700, "y": 200, "z": 100},
		cfg:     func(c *sim.Config) { c.ViewSize = 11 },
		serial:  "6dabfa84609ab967cdfdd04ae1b6c9d9f0c04b2d96eb81d0117c37a120806e5a",
		sharded: "e0dc1c71b3f93182eb3f50bb698a26a72a718b0c819828a8012be5987f57c339",
	},
	{
		// Directed delivery shuffles the candidate pool: the Shuffle path.
		name: "tokens-directed", proto: goldenTokens, n: 2000, shards: 4,
		initial: map[ode.Var]int{"x": 1900, "y": 100},
		serial:  "4ae987261de9bc9afe0801e6ded952746ac863df38d839dfeea02101af0ae64b",
		sharded: "c80ac95e5bc36a04667cc84cef422c26838da027230518ca6b04f917b8d691ed",
	},
	{
		name: "tokens-ttl3-loss", proto: goldenTokens, n: 2000, shards: 3,
		initial: map[ode.Var]int{"x": 1900, "y": 100},
		cfg:     func(c *sim.Config) { c.TokenTTL = 3; c.MessageLoss = 0.1 },
		serial:  "5c82157793d093cd8028603ace8efccad11dd66a21c7db8b75d74fa91d56834e",
		sharded: "6955b348fea9dfa50472179c400e8d52d87b35e3ded2ff18a1b59a23699b912b",
	},
	{
		name: "figure1-push", n: 2000, shards: 4,
		proto: func(t *testing.T) *core.Protocol {
			proto, err := endemic.NewFigure1Protocol(endemic.Params{B: 2, Gamma: 0.3, Alpha: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			return proto
		},
		initial: map[ode.Var]int{"x": 1800, "y": 150, "z": 50},
		serial:  "4b04c0d32e16fc9c96f7af443c5fd7b55e9c124b08d665e8e2c14a6f595544fc",
		sharded: "bfbfd7f004513ec081690d2652034ee563fa6abba691a8bf4608b85098f96518",
	},
	{
		// N−1 = 1024 takes the power-of-two mask path of the peer draw.
		name: "pow2-peers", proto: goldenEndemic, n: 1025, shards: 4,
		initial: map[ode.Var]int{"x": 900, "y": 100, "z": 25},
		serial:  "0097c6f5662d82c6dab949bd39b2f287f00a59958112bf3aba82a4c937886b99",
		sharded: "924190c45c7ee929f792464a0bfc95b67161a625f4b636533c88cbbf87dce3fa",
	},
	{
		name: "kill-revive", proto: goldenEndemic, n: 2000, shards: 3,
		initial: map[ode.Var]int{"x": 1700, "y": 200, "z": 100},
		perturb: func(e *sim.Engine, period int) {
			switch period {
			case 10:
				e.KillFraction(0.3)
			case 20:
				rng := e.Rand()
				for i := 0; i < 200; i++ {
					p := rng.Intn(e.N())
					if e.StateOf(p) == sim.Down {
						_ = e.Revive(p, "x")
					}
				}
			}
		},
		serial:  "709a280c4ba8f47363efa39f214e4f7001a88eca986c6e3442188e13afd59a7c",
		sharded: "1820ad845e66d6fb7c9f51d1c8dc0e7a3a1e3716d4e50b32549d4cf9ba9d96a0",
	},
	{
		name: "freeze", proto: goldenEndemic, n: 2000, shards: 4,
		initial: map[ode.Var]int{"x": 1700, "y": 200, "z": 100},
		perturb: func(e *sim.Engine, period int) {
			switch period {
			case 5:
				for p := 0; p < e.N(); p += 3 {
					e.Freeze(p)
				}
			case 15:
				for p := 0; p < e.N(); p += 6 {
					e.Unfreeze(p)
				}
			}
		},
		serial:  "184ec2148de1ddcd23758e2766bcd71a9d3d9b59761beca674c5526f48bef3cd",
		sharded: "370d2f1df5cbd3a4b7d5e25375051dec54bd41d43dc693c822a113d0864d586b",
	},
	{
		name: "lv-initially-down", n: 2000, shards: 3,
		proto: func(t *testing.T) *core.Protocol {
			proto, err := lv.NewProtocol(0.05)
			if err != nil {
				t.Fatal(err)
			}
			return proto
		},
		initial: map[ode.Var]int{"x": 900, "y": 700, "z": 100},
		cfg:     func(c *sim.Config) { c.InitiallyDown = 300; c.MessageLoss = 0.05 },
		serial:  "900d71f36384c704e150b48eb318c277c167f3866ce4107bf29bdf52951d7563",
		sharded: "1042d66a2f0461a59ec981dcd7159a2898e0eb1b9195d311856a587024066a0c",
	},
	{
		name: "tokens-views-kill", proto: goldenTokens, n: 2000, shards: 4,
		initial: map[ode.Var]int{"x": 1900, "y": 100},
		cfg:     func(c *sim.Config) { c.ViewSize = 7 },
		perturb: func(e *sim.Engine, period int) {
			if period == 8 {
				e.KillFraction(0.5)
			}
		},
		serial:  "9aa1d96cfcd3de8c385d887479b239813461e24854b342bceecab9b4778bfe26",
		sharded: "102f328926ecfc9396f5e0ee3f72e1f5d11dc75522a2bab4ac8e04ac0e462ce4",
	},
}

// goldenFingerprint runs one configuration for 30 periods and hashes the
// per-period counts (in protocol state order), the sorted transition
// tallies, MessagesLastPeriod and TokensLostLastPeriod, then an
// order-sensitive fold of every OnTransition call and one final draw
// through Engine.Rand.
func goldenFingerprint(t *testing.T, gc goldenCase, shards int) string {
	t.Helper()
	proto := gc.proto(t)
	var hook uint64
	stateNum := make(map[ode.Var]uint64, len(proto.States))
	for i, s := range proto.States {
		stateNum[s] = uint64(i + 1)
	}
	cfg := sim.Config{
		N:        gc.n,
		Protocol: proto,
		Initial:  gc.initial,
		Seed:     4242,
		Shards:   shards,
		OnTransition: func(proc int, from, to ode.Var, period int) {
			hook = hook*1000003 + uint64(proc)<<16 + stateNum[from]<<8 + stateNum[to]<<4 + uint64(period)
		},
	}
	if gc.cfg != nil {
		gc.cfg(&cfg)
	}
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for period := 0; period < 30; period++ {
		if gc.perturb != nil {
			gc.perturb(e, period)
		}
		e.Step()
		for _, s := range proto.States {
			put(e.Count(s))
		}
		trans := e.TransitionsLastPeriod()
		keys := make([][2]ode.Var, 0, len(trans))
		for k := range trans {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			h.Write([]byte(k[0] + ">" + k[1] + ";"))
			put(trans[k])
		}
		put(e.MessagesLastPeriod())
		put(e.TokensLostLastPeriod())
	}
	put(int(hook))
	put(e.Rand().Intn(1 << 30))
	return hex.EncodeToString(h.Sum(nil))
}

// TestAgentEngineGolden pins the agent engine's output, serial and
// sharded, across the features that draw randomness differently: peer
// sampling on full membership and on partial views, the power-of-two peer
// divisor, message-loss coins, directed tokens (pool shuffles) and TTL
// walks, Figure 1's push action, crash/revive/freeze perturbations and
// draws made through Engine.Rand. Any change to how the engine consumes
// its Mersenne Twister streams shows up here.
func TestAgentEngineGolden(t *testing.T) {
	for _, gc := range goldenCases {
		if got := goldenFingerprint(t, gc, 0); got != gc.serial {
			t.Errorf("%s serial: fingerprint %s, want %s", gc.name, got, gc.serial)
		}
		if got := goldenFingerprint(t, gc, gc.shards); got != gc.sharded {
			t.Errorf("%s K=%d: fingerprint %s, want %s", gc.name, gc.shards, got, gc.sharded)
		}
	}
}
