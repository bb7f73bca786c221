package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/netem"
)

// The smoke seed is pinned: `make smoke-chaos` and CI run exactly this
// corpus, so a regression in the failure paths reproduces identically
// everywhere.
const smokeSeed = 0xC0FFEE

func TestGenerateIsPure(t *testing.T) {
	for i := 0; i < 64; i++ {
		a, b := Generate(smokeSeed, i), Generate(smokeSeed, i)
		if a.String() != b.String() {
			t.Fatalf("scenario %d not reproducible:\n%s\n%s", i, a, b)
		}
	}
	if Generate(smokeSeed, 0).String() == Generate(smokeSeed+1, 0).String() {
		t.Fatal("different seeds produced identical scenario 0")
	}
}

func TestGenerateCoversSchemes(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < len(Schemes); i++ {
		seen[Generate(smokeSeed, i).Scheme] = true
	}
	for _, s := range Schemes {
		if !seen[s] {
			t.Fatalf("scheme %s not covered by %d consecutive scenarios", s, len(Schemes))
		}
	}
}

func TestGenerateRCGBNLinkFaultsOnly(t *testing.T) {
	for i := 0; i < 200; i++ {
		p := Generate(smokeSeed, i)
		if p.Scheme != SchemeRCGBN {
			continue
		}
		for _, f := range p.Faults {
			if f.Kind.endpoint() {
				t.Fatalf("scenario %d (rc-gbn) carries endpoint fault %s", i, f.Kind)
			}
		}
	}
}

// TestChaosSmoke is the tentpole gate: 50 seed-derived fault programs
// across all five schemes, zero invariant violations. On failure the
// counterexamples (triggering programs included) are printed.
func TestChaosSmoke(t *testing.T) {
	rep := Run(smokeSeed, 50, 4)
	if n := rep.NumViolations(); n != 0 {
		for _, o := range rep.Counterexamples() {
			t.Errorf("scenario %d [%s]: %v", o.Index, o.Program, o.Violations)
		}
		t.Fatalf("%d invariant violation(s) in 50 scenarios", n)
	}
	// The harness must actually exercise the failure paths: a corpus
	// where everything completes cleanly tests nothing.
	var okCount, errCount int
	for _, o := range rep.Outcomes {
		if o.Send == "ok" && o.Recv == "ok" {
			okCount++
		} else {
			errCount++
		}
	}
	if okCount == 0 {
		t.Fatal("no scenario completed — fault programs too hostile to discriminate")
	}
	if errCount == 0 {
		t.Fatal("no scenario failed — fault programs too gentle to test failure paths")
	}
}

// TestChaosWorkerDeterminism pins invariant 0 of the harness itself:
// the report is byte-identical across sweep-worker counts.
func TestChaosWorkerDeterminism(t *testing.T) {
	serial := Run(smokeSeed, 15, 1)
	parallel := Run(smokeSeed, 15, 4)
	if serial.String() != parallel.String() {
		t.Fatalf("report differs between 1 and 4 workers:\n--- serial ---\n%s--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestKillSessionTypedAbort pins the typed-error chain of a session
// kill: both sides unwind with ErrAborted, the lease is quarantined
// (never re-leased), and the cold follow-up runs clean.
func TestKillSessionTypedAbort(t *testing.T) {
	p := Program{
		Seed: 7, Index: 1, Scheme: SchemeSRNACK, Size: 256 << 10,
		Faults: []Fault{{Kind: FaultKillSession, At: 2 * time.Millisecond}},
	}
	o := RunProgram(p)
	if len(o.Violations) != 0 {
		t.Fatalf("violations: %v", o.Violations)
	}
	if o.Send != "aborted" || o.Recv != "aborted" {
		t.Fatalf("kill-session classified send=%s recv=%s, want aborted/aborted", o.Send, o.Recv)
	}
	if o.FollowUp != "ok-cold" {
		t.Fatalf("follow-up %q, want ok-cold (quarantined lease must not be re-leased)", o.FollowUp)
	}
}

// TestLinkDeathTimesOut pins the blackhole path: with both source
// uplinks dead early, the transfer must die with a typed timeout (or
// peer-dead, if the CTS never made it) instead of hanging.
func TestLinkDeathTimesOut(t *testing.T) {
	p := Program{
		Seed: 7, Index: 0, Scheme: SchemeSR, Size: 256 << 10,
		Faults: []Fault{{Kind: FaultLinkDeath, At: time.Millisecond}},
	}
	o := RunProgram(p)
	if len(o.Violations) != 0 {
		t.Fatalf("violations: %v", o.Violations)
	}
	for side, c := range map[string]string{"send": o.Send, "recv": o.Recv} {
		if c != "timeout" && c != "peer-dead" {
			t.Fatalf("%s classified %q, want timeout or peer-dead", side, c)
		}
	}
	if o.FollowUp != "ok-cold" {
		t.Fatalf("follow-up %q, want ok-cold", o.FollowUp)
	}
}

// TestCrashRecvSenderSurvives pins the crash-restart story: the
// receiver aborts mid-transfer, the sender unwinds with a typed error
// within GlobalTimeout, and the quarantined deployment's replacement
// serves a clean follow-up.
func TestCrashRecvSenderSurvives(t *testing.T) {
	p := Program{
		Seed: 7, Index: 2, Scheme: SchemeEC, Size: 256 << 10,
		Faults: []Fault{{Kind: FaultCrashRecv, At: 1 * time.Millisecond}},
	}
	o := RunProgram(p)
	if len(o.Violations) != 0 {
		t.Fatalf("violations: %v", o.Violations)
	}
	if o.Recv != "aborted" {
		t.Fatalf("crashed receiver classified %q, want aborted", o.Recv)
	}
	if o.Send == "ok" || strings.HasPrefix(o.Send, "UNTYPED") {
		t.Fatalf("sender against a dead peer classified %q, want a typed failure", o.Send)
	}
}

// TestCleanProgramCompletes: the no-fault control case must complete
// and return the lease to the pool.
func TestCleanProgramCompletes(t *testing.T) {
	for _, scheme := range Schemes {
		p := Program{Seed: 7, Index: 3, Scheme: scheme, Size: 64 << 10}
		o := RunProgram(p)
		if len(o.Violations) != 0 {
			t.Fatalf("%s: violations: %v", scheme, o.Violations)
		}
		if o.Send != "ok" || o.Recv != "ok" {
			t.Fatalf("%s: clean run classified send=%s recv=%s", scheme, o.Send, o.Recv)
		}
		if scheme != SchemeRCGBN && o.FollowUp != "ok-reused" {
			t.Fatalf("%s: follow-up %q, want ok-reused", scheme, o.FollowUp)
		}
	}
}

// TestShrinkMinimizes: from a program whose failure is caused by one
// fault among several, Shrink must isolate exactly that fault.
func TestShrinkMinimizes(t *testing.T) {
	p := Program{
		Seed: 7, Index: 4, Scheme: SchemeSR, Size: 16 << 10,
		Faults: []Fault{
			{Kind: FaultFlap, Edge: 3, At: 10 * time.Millisecond, Dur: 20 * time.Millisecond},
			{Kind: FaultKillSession, At: 2 * time.Millisecond},
			{Kind: FaultBurstLoss, Edge: 1, At: 5 * time.Millisecond, Dur: 20 * time.Millisecond, Pct: 10},
			{Kind: FaultDrift, Edge: 0, At: 20 * time.Millisecond, Dur: 20 * time.Millisecond, Pct: 1},
		},
	}
	// Synthetic predicate: "fails" iff a kill-session fault is present
	// (a pure, cheap stand-in for a real invariant breach).
	failing := func(q Program) bool { return hasKind(q.Faults, FaultKillSession) }
	m := Shrink(p, failing)
	if len(m.Faults) != 1 || m.Faults[0].Kind != FaultKillSession {
		t.Fatalf("shrink left %v, want exactly the kill-session fault", m.Faults)
	}
	// A passing program is returned untouched.
	ok := Shrink(p, func(Program) bool { return false })
	if len(ok.Faults) != len(p.Faults) {
		t.Fatalf("shrink mutated a passing program: %v", ok.Faults)
	}
}

// TestShrinkOnRealInvariants runs Shrink with the real RunProgram
// predicate against a composed program whose only real failure cause
// is the session kill — the end-to-end counterexample-minimization
// path a deliberately-broken build would exercise.
func TestShrinkOnRealInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shrink in -short mode")
	}
	p := Program{
		Seed: 7, Index: 5, Scheme: SchemeSRNACK, Size: 16 << 10,
		Faults: []Fault{
			{Kind: FaultFlap, Edge: 3, At: 10 * time.Millisecond, Dur: 20 * time.Millisecond},
			{Kind: FaultKillSession, At: 2 * time.Millisecond},
		},
	}
	// Predicate: the scenario does NOT end in ok/ok (stand-in for "the
	// property my bisection chases"). The flap of the backup arm is
	// irrelevant; shrink must drop it.
	failing := func(q Program) bool {
		o := RunProgram(q)
		return o.Send != "ok" || o.Recv != "ok"
	}
	m := Shrink(p, failing)
	if len(m.Faults) != 1 || m.Faults[0].Kind != FaultKillSession {
		t.Fatalf("shrink left %v, want exactly the kill-session fault", m.Faults)
	}
}

func BenchmarkChaosScenario(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := RunProgram(Generate(smokeSeed, i%50))
		if len(o.Violations) != 0 {
			b.Fatalf("scenario %d: %v", i%50, o.Violations)
		}
	}
}

// TestControlRingNeverRNRDrops checks that the control planes' fixed
// receive rings never run dry: after lossy SR, SR-NACK, EC and
// adaptive transfers, and under programs duplicating every control
// packet of both sides, neither side's control UD QP has dropped a
// datagram for want of a posted buffer.
func TestControlRingNeverRNRDrops(t *testing.T) {
	dupBoth := []Fault{
		{Kind: FaultCtrlDup, Edge: 0, Dur: Horizon, Pct: 100},
		{Kind: FaultCtrlDup, Edge: 1, Dur: Horizon, Pct: 100},
	}
	for _, tc := range []struct {
		scheme string
		drop   float64
		faults []Fault
	}{
		{SchemeSR, 0.02, nil},
		{SchemeSRNACK, 0.02, nil},
		{SchemeEC, 0.02, nil},
		{SchemeAdaptive, 0.02, nil},
		{SchemeSRNACK, 0.01, dupBoth},
		{SchemeEC, 0.01, dupBoth},
	} {
		p := Program{Seed: 1, Scheme: tc.scheme, Size: 512 << 10, Faults: tc.faults}
		name := fmt.Sprintf("%s drop=%g", p, tc.drop)
		clk := clock.NewVirtual()
		topo, src, dst, err := diamond(clk, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range topo.Edges() {
			if err := e.SetLoss(netem.LossSpec{P: tc.drop}); err != nil {
				t.Fatal(err)
			}
		}
		sched, eps := compile(p)
		flow, err := topo.NewFlow(src, dst, chaosCoreCfg(), chaosRelCfg(tc.scheme))
		if err != nil {
			t.Fatal(err)
		}
		installEndpointFaults(clk, flow, p, eps)
		if _, err := sched.Apply(topo); err != nil {
			t.Fatal(err)
		}
		res := transfer(clk, flow, tc.scheme, p.Size, 1)
		if res.sendErr != nil || res.recvErr != nil || !res.bytesOK {
			t.Fatalf("%s: send %v, recv %v, bytes ok %v", name, res.sendErr, res.recvErr, res.bytesOK)
		}
		if a, b := flow.A.CP.RNRDrops(), flow.B.CP.RNRDrops(); a != 0 || b != 0 {
			t.Fatalf("%s: control RNR drops A=%d B=%d, want 0", name, a, b)
		}
		flow.Close()
		if err := topo.ClosePools(); err != nil {
			t.Fatal(err)
		}
	}
}
