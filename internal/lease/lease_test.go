package lease

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable clock shared by the managers of one test.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestManager(t *testing.T, dir, owner string, ttl time.Duration, clk *fakeClock) *Manager {
	t.Helper()
	m, err := NewManager(dir, owner, ttl)
	if err != nil {
		t.Fatal(err)
	}
	if clk != nil {
		m.now = clk.now
	}
	return m
}

func TestAcquireReleaseCycle(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, "w1", time.Second, nil)

	l, err := m.TryAcquire("cell-a")
	if err != nil {
		t.Fatal(err)
	}
	if l.Token != 1 {
		t.Fatalf("first claim should carry token 1, got %d", l.Token)
	}
	if _, err := m.TryAcquire("cell-a"); !errors.Is(err, ErrHeld) {
		t.Fatalf("re-entrant claim: got %v, want ErrHeld", err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	// Released: a fresh claim succeeds and restarts the token at 1.
	l2, err := m.TryAcquire("cell-a")
	if err != nil {
		t.Fatal(err)
	}
	if l2.Token != 1 {
		t.Fatalf("post-release claim token = %d, want 1", l2.Token)
	}
}

func TestSecondOwnerBlockedWhileLive(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	m1 := newTestManager(t, dir, "w1", time.Second, clk)
	m2 := newTestManager(t, dir, "w2", time.Second, clk)

	if _, err := m1.TryAcquire("cell"); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.TryAcquire("cell"); !errors.Is(err, ErrHeld) {
		t.Fatalf("live lease stolen: %v", err)
	}
	// Heartbeats keep it alive past the nominal TTL.
	clk.advance(700 * time.Millisecond)
	l1 := &Lease{m: m1, key: "cell", path: filepath.Join(dir, "cell.lease"), Token: 1}
	if err := l1.Renew(); err != nil {
		t.Fatal(err)
	}
	clk.advance(700 * time.Millisecond)
	if _, err := m2.TryAcquire("cell"); !errors.Is(err, ErrHeld) {
		t.Fatalf("renewed lease treated as expired: %v", err)
	}
}

func TestExpiredLeaseReclaimBumpsFencingToken(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	m1 := newTestManager(t, dir, "w1", time.Second, clk)
	m2 := newTestManager(t, dir, "w2", time.Second, clk)

	l1, err := m1.TryAcquire("cell")
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second) // w1's heartbeat goes stale
	l2, err := m2.TryAcquire("cell")
	if err != nil {
		t.Fatalf("expired lease not reclaimed: %v", err)
	}
	if l2.Token != l1.Token+1 {
		t.Fatalf("reclaim token = %d, want %d", l2.Token, l1.Token+1)
	}
	// The zombie's renewal and release must both observe the loss.
	if err := l1.Renew(); !errors.Is(err, ErrLost) {
		t.Fatalf("zombie Renew: got %v, want ErrLost", err)
	}
	if err := l1.Release(); !errors.Is(err, ErrLost) {
		t.Fatalf("zombie Release: got %v, want ErrLost", err)
	}
	// And the reclaimer's lease must still be intact afterwards.
	if err := l2.Renew(); err != nil {
		t.Fatalf("winner lost its lease to a zombie: %v", err)
	}
}

func TestCorruptLeaseFileIsReclaimable(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, "w1", time.Second, nil)
	// A damaged lease file: not JSON. Lease files are never written in
	// place, so while it is younger than a TTL it may belong to a live
	// holder; once older it is reclaimable.
	path := filepath.Join(dir, "cell.lease")
	if err := os.WriteFile(path, []byte("garb"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TryAcquire("cell"); !errors.Is(err, ErrHeld) {
		t.Fatalf("fresh corrupt lease: got %v, want ErrHeld", err)
	}
	old := time.Now().Add(-2 * time.Second)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	l, err := m.TryAcquire("cell")
	if err != nil {
		t.Fatalf("corrupt lease not reclaimed: %v", err)
	}
	if l.Token != 1 {
		t.Fatalf("token after corrupt reclaim = %d, want 1", l.Token)
	}
}

func TestConcurrentClaimExactlyOneWinner(t *testing.T) {
	dir := t.TempDir()
	const workers = 16
	var wg sync.WaitGroup
	wins := make(chan string, workers)
	for i := 0; i < workers; i++ {
		owner := fmt.Sprintf("w%d", i)
		m := newTestManager(t, dir, owner, time.Minute, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.TryAcquire("cell"); err == nil {
				wins <- owner
			} else if !errors.Is(err, ErrHeld) {
				t.Errorf("unexpected acquire error: %v", err)
			}
		}()
	}
	wg.Wait()
	close(wins)
	var winners []string
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("want exactly one winner, got %v", winners)
	}
}

func TestConcurrentReclaimExactlyOneWinner(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	m0 := newTestManager(t, dir, "dead", time.Second, clk)
	if _, err := m0.TryAcquire("cell"); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Hour) // thoroughly expired

	const workers = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	var tokens []uint64
	for i := 0; i < workers; i++ {
		m := newTestManager(t, dir, fmt.Sprintf("w%d", i), time.Second, clk)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if l, err := m.TryAcquire("cell"); err == nil {
				mu.Lock()
				tokens = append(tokens, l.Token)
				mu.Unlock()
			} else if !errors.Is(err, ErrHeld) {
				t.Errorf("unexpected reclaim error: %v", err)
			}
		}()
	}
	wg.Wait()
	if len(tokens) != 1 {
		t.Fatalf("want exactly one reclaimer, got tokens %v", tokens)
	}
	if tokens[0] != 2 {
		t.Fatalf("reclaim token = %d, want 2 (fenced past the dead claim)", tokens[0])
	}
}

func TestHeartbeatKeepsLeaseAndReportsLoss(t *testing.T) {
	dir := t.TempDir()
	m1 := newTestManager(t, dir, "w1", 250*time.Millisecond, nil)
	l, err := m1.TryAcquire("cell")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	lost := l.Heartbeat(50*time.Millisecond, stop)

	// Heartbeats outlive several TTLs.
	time.Sleep(600 * time.Millisecond)
	m2 := newTestManager(t, dir, "w2", 250*time.Millisecond, nil)
	if _, err := m2.TryAcquire("cell"); !errors.Is(err, ErrHeld) {
		t.Fatalf("heartbeated lease expired: %v", err)
	}
	select {
	case <-lost:
		t.Fatal("heartbeat reported a spurious loss")
	default:
	}

	// Simulate a reclaim out from under the holder: replace the file.
	// Loss detection is best-effort by design — a heartbeat renewal
	// whose read-check ran just before the replacement can rewrite its
	// own record over the injected one (safety then rests on fencing
	// tokens, not the lease file). Re-inject each interval until the
	// heartbeat notices, so a single unlucky overlap cannot hang the
	// test (the 600ms sleep above is phase-locked to the 50ms ticker,
	// which made that overlap reproducible on slow single-core hosts).
	l2 := &Lease{m: m2, key: "cell", path: filepath.Join(dir, "cell.lease"), Token: 99}
	rec := record{Owner: "w2", Token: 99, HeartbeatUnixNano: time.Now().UnixNano(),
		TTLNano: int64(time.Minute)}
	deadline := time.After(5 * time.Second)
	noticed := false
	for !noticed {
		writeTestRecord(t, l2.path, rec)
		select {
		case <-lost:
			noticed = true
		case <-deadline:
			t.Fatal("heartbeat never noticed the loss")
		case <-time.After(60 * time.Millisecond):
		}
	}
	close(stop)
}

func writeTestRecord(t *testing.T, path string, rec record) {
	t.Helper()
	b := []byte(fmt.Sprintf(
		`{"owner":%q,"token":%d,"heartbeat_unix_nano":%d,"ttl_nano":%d}`,
		rec.Owner, rec.Token, rec.HeartbeatUnixNano, rec.TTLNano))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestHolders(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	m := newTestManager(t, dir, "w1", time.Second, clk)
	if _, err := m.TryAcquire("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TryAcquire("b"); err != nil {
		t.Fatal(err)
	}
	got := m.Holders()
	if len(got) != 2 || got["a"] != "w1" || got["b"] != "w1" {
		t.Fatalf("Holders = %v", got)
	}
	clk.advance(time.Hour)
	if got := m.Holders(); len(got) != 0 {
		t.Fatalf("expired leases still listed: %v", got)
	}
}

func TestBadKeysRejected(t *testing.T) {
	m := newTestManager(t, t.TempDir(), "w1", time.Second, nil)
	for _, k := range []string{"", "a/b", "../evil"} {
		if _, err := m.TryAcquire(k); err == nil {
			t.Errorf("key %q accepted", k)
		}
	}
}
