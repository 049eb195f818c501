package admin

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"overcast"
)

// testHarness is one in-process daemon: allocator, server, serve goroutine.
type testHarness struct {
	t     *testing.T
	alloc *overcast.Allocator
	srv   *Server
	serve chan error
}

func startHarness(t *testing.T, dir string, opts Options, allocOpts overcast.AllocatorOptions) *testHarness {
	t.Helper()
	net, err := overcast.WaxmanNetwork(32, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := overcast.NewAllocator(net, allocOpts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.SocketPath == "" {
		opts.SocketPath = filepath.Join(dir, "admin.sock")
	}
	if opts.DrainTimeout == 0 {
		opts.DrainTimeout = 2 * time.Second
	}
	srv, err := NewServer(alloc, opts)
	if err != nil {
		alloc.Close()
		t.Fatal(err)
	}
	if _, err := srv.Restore(); err != nil {
		alloc.Close()
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		alloc.Close()
		t.Fatal(err)
	}
	h := &testHarness{t: t, alloc: alloc, srv: srv, serve: make(chan error, 1)}
	go func() { h.serve <- srv.Serve() }()
	t.Cleanup(func() { alloc.Close() })
	return h
}

func (h *testHarness) dial() *Client {
	h.t.Helper()
	c, err := Dial(h.srv.opts.SocketPath, 2*time.Second)
	if err != nil {
		h.t.Fatal(err)
	}
	return c
}

// drainAndWait drains through the client and waits for Serve to return nil.
func (h *testHarness) drainAndWait(c *Client) {
	h.t.Helper()
	if _, err := c.Drain(); err != nil {
		h.t.Fatalf("drain: %v", err)
	}
	select {
	case err := <-h.serve:
		if err != nil {
			h.t.Fatalf("Serve after drain = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		h.t.Fatal("Serve did not return after drain")
	}
}

func mustJoin(t *testing.T, c *Client, members []int, demand float64) *WirePlacement {
	t.Helper()
	p, err := c.Join(members, demand)
	if err != nil {
		t.Fatalf("join %v: %v", members, err)
	}
	if p.Session == 0 {
		t.Fatal("join issued the invalid zero token")
	}
	return p
}

// TestDaemonLifecycle is the acceptance test of the tentpole: start a daemon,
// mutate it through the socket, drain it (persisting a final state snapshot),
// restart against the same state path, and require the restored daemon to
// serve the persisted allocation bit-identically to the on-disk bytes.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "state.json")

	h := startHarness(t, dir, Options{StatePath: state}, overcast.AllocatorOptions{})
	c := h.dial()
	defer c.Close()

	pong, err := c.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if pong.Protocol != ProtocolVersion || pong.Draining {
		t.Fatalf("ping = %+v", pong)
	}

	p1 := mustJoin(t, c, []int{0, 3, 9}, 1)
	p2 := mustJoin(t, c, []int{5, 12, 20, 27}, 2)
	p3 := mustJoin(t, c, []int{1, 8, 30}, 1)
	if p1.Session == p2.Session || p2.Session == p3.Session {
		t.Fatal("token reuse")
	}
	if p2.Epoch <= p1.Epoch {
		t.Fatalf("epochs not advancing: %d then %d", p1.Epoch, p2.Epoch)
	}

	left, err := c.Leave(p2.Session)
	if err != nil {
		t.Fatal(err)
	}
	if left.Session != p2.Session || left.Active != 2 {
		t.Fatalf("leave = %+v", left)
	}
	if _, err := c.Leave(p2.Session); err == nil {
		t.Fatal("double leave succeeded")
	} else if rpcErr := new(RPCError); !errors.As(err, &rpcErr) || rpcErr.Code != ErrCodeUnknownSession {
		t.Fatalf("double leave error = %v, want %s", err, ErrCodeUnknownSession)
	}

	reb, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(reb.Placements) != 2 {
		t.Fatalf("rebalance placed %d sessions, want 2", len(reb.Placements))
	}
	if reb.Placements[0].Session != p1.Session || reb.Placements[1].Session != p3.Session {
		t.Fatalf("rebalance order %d,%d, want %d,%d",
			reb.Placements[0].Session, reb.Placements[1].Session, p1.Session, p3.Session)
	}

	// The rebalance materialized an allocation; a cached read must serve it
	// and a refreshing read must agree on the population.
	cached, err := c.Snapshot(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cached.Sessions) != 2 || cached.Epoch != reb.Epoch {
		t.Fatalf("cached snapshot = epoch %d with %d sessions", cached.Epoch, len(cached.Sessions))
	}
	fresh, err := c.Snapshot(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Sessions) != 2 {
		t.Fatalf("refreshed snapshot has %d sessions", len(fresh.Sessions))
	}
	if fresh.Sessions[0].Session != p1.Session || fresh.Sessions[1].Session != p3.Session {
		t.Fatal("refreshed snapshot token order != admission order")
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Active != 2 || st.Allocator.Joins != 3 || st.Allocator.Leaves != 1 {
		t.Fatalf("stats = active %d, joins %d, leaves %d", st.Active, st.Allocator.Joins, st.Allocator.Leaves)
	}
	if st.Daemon.Restored {
		t.Fatal("fresh daemon claims to be restored")
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"overcastd_active_sessions 2",
		"overcastd_joins_total 3",
		"overcastd_plane_subtree_repaired_total",
		"overcastd_plane_subtree_nodes_total",
		`overcastd_rpcs_total{op="join"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}

	h.drainAndWait(c)

	// The final state snapshot is on disk. Pull the raw persisted allocation
	// bytes for the bitwise comparison below.
	raw, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk struct {
		V        int             `json:"v"`
		Sessions json.RawMessage `json:"sessions"`
		Snapshot json.RawMessage `json:"snapshot"`
	}
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.V != ProtocolVersion || len(onDisk.Snapshot) == 0 {
		t.Fatalf("state file: version %d, snapshot %d bytes", onDisk.V, len(onDisk.Snapshot))
	}

	// Restart: a fresh allocator restored from the same state path.
	h2 := startHarness(t, dir, Options{StatePath: state}, overcast.AllocatorOptions{})
	c2 := h2.dial()
	defer c2.Close()

	st2, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Active != 2 || !st2.Daemon.Restored {
		t.Fatalf("restored stats = active %d, restored %v", st2.Active, st2.Daemon.Restored)
	}

	// Acceptance: the restored daemon serves the pre-crash allocation
	// bit-identically to the on-disk snapshot until the next refresh.
	snap2, err := c2.Snapshot(false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(snap2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.TrimSpace(onDisk.Snapshot)) {
		t.Fatalf("restored snapshot != persisted bytes:\n got  %s\n disk %s", got, onDisk.Snapshot)
	}

	// Tokens must not be reissued across the restart, and the restored
	// population must keep serving mutations.
	p4 := mustJoin(t, c2, []int{2, 14, 25}, 1)
	if p4.Session <= p3.Session {
		t.Fatalf("post-restart token %d reuses pre-crash token space (last was %d)", p4.Session, p3.Session)
	}
	if _, err := c2.Leave(p1.Session); err != nil {
		t.Fatalf("pre-crash token %d unusable after restore: %v", p1.Session, err)
	}
	h2.drainAndWait(c2)
}

// TestAdmissionMaxSessions: the population cap rejects the overflow join with
// the admission code and no allocator state change.
func TestAdmissionMaxSessions(t *testing.T) {
	h := startHarness(t, t.TempDir(), Options{MaxSessions: 2}, overcast.AllocatorOptions{})
	c := h.dial()
	defer c.Close()

	mustJoin(t, c, []int{0, 3, 9}, 1)
	p2 := mustJoin(t, c, []int{5, 12, 20}, 1)
	_, err := c.Join([]int{1, 8, 30}, 1)
	rpcErr := new(RPCError)
	if !errors.As(err, &rpcErr) || rpcErr.Code != ErrCodeAdmission {
		t.Fatalf("overflow join error = %v, want %s", err, ErrCodeAdmission)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Active != 2 || st.Daemon.AdmissionRejected != 1 {
		t.Fatalf("after rejection: active %d, rejected %d", st.Active, st.Daemon.AdmissionRejected)
	}
	// Departures free capacity.
	if _, err := c.Leave(p2.Session); err != nil {
		t.Fatal(err)
	}
	mustJoin(t, c, []int{1, 8, 30}, 1)
	h.drainAndWait(c)
}

// TestAdmissionMaxCongestion: a congestion threshold below any feasible
// placement rejects the join and rolls the allocator back exactly.
func TestAdmissionMaxCongestion(t *testing.T) {
	h := startHarness(t, t.TempDir(), Options{MaxCongestion: 1e-9}, overcast.AllocatorOptions{})
	c := h.dial()
	defer c.Close()

	_, err := c.Join([]int{0, 3, 9}, 1)
	rpcErr := new(RPCError)
	if !errors.As(err, &rpcErr) || rpcErr.Code != ErrCodeAdmission {
		t.Fatalf("join error = %v, want %s", err, ErrCodeAdmission)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Active != 0 {
		t.Fatalf("rolled-back join left %d active sessions", st.Active)
	}
	if st.Allocator.Joins != 1 || st.Allocator.Leaves != 1 {
		t.Fatalf("rollback counters: joins %d, leaves %d (want 1, 1)", st.Allocator.Joins, st.Allocator.Leaves)
	}
	h.drainAndWait(c)
}

// TestAdmissionStrict: with a repair budget too small for warm repair to
// absorb a join (RepairPhaseBudget=2 forces a fallback on the first
// post-anchor refresh — see the WarmFallbacks counter), a strict daemon
// rejects the join that could not be repaired within budget.
func TestAdmissionStrict(t *testing.T) {
	h := startHarness(t, t.TempDir(), Options{StrictAdmission: true},
		overcast.AllocatorOptions{RepairPhaseBudget: 2})
	c := h.dial()
	defer c.Close()

	// First join: no cold anchor yet, the probe is skipped.
	mustJoin(t, c, []int{0, 3, 9}, 1)
	if _, err := c.Snapshot(true); err != nil { // cold anchor
		t.Fatal(err)
	}
	_, err := c.Join([]int{5, 12, 20, 27}, 2)
	rpcErr := new(RPCError)
	if !errors.As(err, &rpcErr) || rpcErr.Code != ErrCodeAdmission {
		t.Fatalf("strict join error = %v, want %s", err, ErrCodeAdmission)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Active != 1 || st.Daemon.AdmissionRejected != 1 {
		t.Fatalf("after strict rejection: active %d, rejected %d", st.Active, st.Daemon.AdmissionRejected)
	}
	if st.Allocator.WarmFallbacks == 0 {
		t.Fatal("strict rejection fired without a recorded warm fallback")
	}
	h.drainAndWait(c)
}

// TestServerRejectsBadFrames: the server answers protocol violations with
// coded error responses on the live socket, without dropping the connection
// for recoverable ones.
func TestServerRejectsBadFrames(t *testing.T) {
	h := startHarness(t, t.TempDir(), Options{}, overcast.AllocatorOptions{})
	c := h.dial()
	defer c.Close()

	send := func(frame string) *Response {
		t.Helper()
		if _, err := c.conn.Write([]byte(frame + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := c.r.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(line[:len(line)-1])
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := send(`{"v":9,"id":4,"op":"ping"}`); resp.OK || resp.Code != ErrCodeBadVersion || resp.ID != 4 {
		t.Fatalf("future version: %+v", resp)
	}
	if resp := send(`this is not json`); resp.OK || resp.Code != ErrCodeBadFrame {
		t.Fatalf("malformed frame: %+v", resp)
	}
	if resp := send(`{"v":1,"id":5,"op":"warp"}`); resp.OK || resp.Code != ErrCodeUnknownOp {
		t.Fatalf("unknown op: %+v", resp)
	}
	if resp := send(`{"v":1,"id":6,"op":"join"}`); resp.OK || resp.Code != ErrCodeBadParams {
		t.Fatalf("missing params: %+v", resp)
	}
	// The connection survived all four rejections.
	if pong, err := c.Ping(); err != nil || pong.Protocol != ProtocolVersion {
		t.Fatalf("ping after rejections: %v %+v", err, pong)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Daemon.RPCs["invalid"] != 4 {
		t.Fatalf("invalid-frame counter = %d, want 4", st.Daemon.RPCs["invalid"])
	}
	h.drainAndWait(c)
}

// TestConcurrentReadsDuringMutation: cached snapshot reads on one connection
// proceed while another connection holds the mutation path busy; every read
// serves a coherent materialized allocation.
func TestConcurrentReadsDuringMutation(t *testing.T) {
	h := startHarness(t, t.TempDir(), Options{}, overcast.AllocatorOptions{})
	w := h.dial()
	defer w.Close()

	mustJoin(t, w, []int{0, 3, 9}, 1)
	if _, err := w.Snapshot(true); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			members := []int{1 + i%4, 8 + i%5, 20 + i%6}
			p, err := w.Join(members, 1)
			if err != nil {
				done <- err
				return
			}
			if _, err := w.Snapshot(true); err != nil {
				done <- err
				return
			}
			if _, err := w.Leave(p.Session); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	r := h.dial()
	defer r.Close()
	reads := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if reads == 0 {
				t.Fatal("reader never completed a snapshot")
			}
			h.drainAndWait(r)
			return
		default:
			snap, err := r.Snapshot(false)
			if err != nil {
				t.Fatal(err)
			}
			if len(snap.Sessions) == 0 {
				t.Fatal("cached snapshot with no sessions")
			}
			reads++
		}
	}
}

// TestRestoreMissingAndCorruptState: a missing state file restores zero
// sessions; a corrupt or future-versioned one fails loudly instead of
// silently starting empty.
func TestRestoreMissingAndCorruptState(t *testing.T) {
	dir := t.TempDir()
	net, err := overcast.WaxmanNetwork(16, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := overcast.NewAllocator(net, overcast.AllocatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer alloc.Close()

	newSrv := func(state string) *Server {
		t.Helper()
		srv, err := NewServer(alloc, Options{SocketPath: filepath.Join(dir, "s.sock"), StatePath: state})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	if n, err := newSrv(filepath.Join(dir, "absent.json")).Restore(); err != nil || n != 0 {
		t.Fatalf("missing state: restored %d, err %v", n, err)
	}

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"v":1,"sessions":[{`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newSrv(corrupt).Restore(); err == nil {
		t.Fatal("corrupt state restored silently")
	}

	future := filepath.Join(dir, "future.json")
	if err := os.WriteFile(future, []byte(`{"v":2,"next_token":1,"sessions":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newSrv(future).Restore(); err == nil {
		t.Fatal("future-versioned state restored silently")
	}
}

// TestWatchStream is the acceptance test of the watch satellite: a subscribed
// client receives the initial snapshot frame and then exactly one event per
// epoch change, in order, with gapless per-stream sequence numbers — and a
// terminal draining frame (not a torn connection) when the daemon shuts down.
func TestWatchStream(t *testing.T) {
	h := startHarness(t, t.TempDir(), Options{}, overcast.AllocatorOptions{})
	wc := h.dial()
	defer wc.Close()
	w, err := wc.Watch(0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := w.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first.Seq != 1 || first.Epoch != 0 || first.Heartbeat || first.Snapshot != nil {
		t.Fatalf("initial frame = %+v, want seq 1, epoch 0, no snapshot", first)
	}

	// Mutations on a second connection; each bumps the epoch exactly once.
	c := h.dial()
	defer c.Close()
	p1 := mustJoin(t, c, []int{0, 3, 9}, 1)
	mustJoin(t, c, []int{5, 12, 20}, 1)
	reb, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Leave(p1.Session); err != nil {
		t.Fatal(err)
	}

	wantEpochs := []uint64{1, 2, reb.Epoch, reb.Epoch + 1}
	for i, wantEpoch := range wantEpochs {
		ev, err := w.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Seq != uint64(i+2) || ev.Epoch != wantEpoch || ev.Heartbeat {
			t.Fatalf("event %d = %+v, want seq %d epoch %d", i, ev, i+2, wantEpoch)
		}
		if ev.Epoch == reb.Epoch {
			// The rebalance materialized a fresh allocation; its event must
			// carry it at the matching epoch.
			if ev.Snapshot == nil || ev.Snapshot.Epoch != reb.Epoch || len(ev.Snapshot.Sessions) != 2 {
				t.Fatalf("rebalance event snapshot = %+v", ev.Snapshot)
			}
		}
	}

	// Drain: the stream ends with a terminal draining error frame.
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	_, err = w.Next()
	rpcErr := new(RPCError)
	if !errors.As(err, &rpcErr) || rpcErr.Code != ErrCodeDraining {
		t.Fatalf("post-drain Next = %v, want %s", err, ErrCodeDraining)
	}
	select {
	case err := <-h.serve:
		if err != nil {
			t.Fatalf("Serve after drain = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain with a live watcher")
	}
}

// TestFaultRPC drives the v1 fault op end to end: a link-down collapses the
// link and advances the epoch (one watch frame), the matching link-up
// restores it (another frame), and a redundant link-up is acknowledged as a
// no-op that notifies nobody. Draining daemons refuse faults.
func TestFaultRPC(t *testing.T) {
	h := startHarness(t, t.TempDir(), Options{}, overcast.AllocatorOptions{})
	c := h.dial()
	defer c.Close()
	mustJoin(t, c, []int{0, 3, 9}, 1)

	wc := h.dial()
	defer wc.Close()
	w, err := wc.Watch(0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := w.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first.Epoch != 1 {
		t.Fatalf("initial watch epoch = %d, want 1", first.Epoch)
	}

	// The incremental Waxman generator guarantees link (0,1).
	down, err := c.Fault(0, 1, FaultLinkDown, 0)
	if err != nil {
		t.Fatal(err)
	}
	if down.Kind != FaultLinkDown || down.Epoch != 2 || down.UnderlayEvents != 1 {
		t.Fatalf("link-down result = %+v", down)
	}
	up, err := c.Fault(1, 0, FaultLinkUp, 0) // order-insensitive endpoints
	if err != nil {
		t.Fatal(err)
	}
	if up.Epoch != 3 || up.UnderlayEvents != 2 {
		t.Fatalf("link-up result = %+v", up)
	}
	if up.Capacity <= down.Capacity*1000 {
		t.Fatalf("recovery capacity %g vs down capacity %g: link did not recover", up.Capacity, down.Capacity)
	}
	// Redundant recovery: acknowledged, but a no-op — same epoch, same count.
	noop, err := c.Fault(0, 1, FaultLinkUp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if noop.Epoch != up.Epoch || noop.UnderlayEvents != up.UnderlayEvents {
		t.Fatalf("redundant link-up result = %+v, want epoch %d events %d", noop, up.Epoch, up.UnderlayEvents)
	}

	// Exactly one watch frame per effective fault, none for the no-op: the
	// next two frames carry epochs 2 and 3, and a following join's frame
	// (epoch 4) arrives immediately after — no frame in between.
	for i, wantEpoch := range []uint64{2, 3} {
		ev, err := w.Next()
		if err != nil {
			t.Fatalf("fault event %d: %v", i, err)
		}
		if ev.Epoch != wantEpoch || ev.Heartbeat {
			t.Fatalf("fault event %d = %+v, want epoch %d", i, ev, wantEpoch)
		}
	}
	mustJoin(t, c, []int{5, 12, 20}, 1)
	ev, err := w.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Epoch != 4 {
		t.Fatalf("post-noop frame epoch = %d, want 4 (the no-op must not emit a frame)", ev.Epoch)
	}

	// Bad faults are coded rejections.
	rpcErr := new(RPCError)
	if _, err := c.Fault(0, 0, FaultLinkDown, 0); !errors.As(err, &rpcErr) || rpcErr.Code != ErrCodeBadParams {
		t.Fatalf("self-loop fault error = %v, want %s", err, ErrCodeBadParams)
	}
	if _, err := c.Fault(0, 1, "sever", 0); !errors.As(err, &rpcErr) || rpcErr.Code != ErrCodeBadParams {
		t.Fatalf("unknown kind error = %v, want %s", err, ErrCodeBadParams)
	}
	if _, err := c.Fault(0, 1, FaultDrift, -1); !errors.As(err, &rpcErr) || rpcErr.Code != ErrCodeBadParams {
		t.Fatalf("bad drift factor error = %v, want %s", err, ErrCodeBadParams)
	}

	// Prometheus text surfaces the robustness counters.
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"overcastd_underlay_events_total 2",
		"overcastd_plane_nonmonotone_refills_total",
		"overcastd_plane_subtree_repaired_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "overcastd_shard") {
		t.Fatalf("metrics text still carries shard series:\n%s", text)
	}

	// Pre-dial before draining: the listener closes once the drain starts,
	// but established connections are served until DrainTimeout.
	c2 := h.dial()
	defer c2.Close()
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	// Faults are mutations: a draining daemon refuses them.
	if _, err := c2.Fault(0, 1, FaultLinkDown, 0); err == nil {
		t.Fatal("fault during drain succeeded")
	}
	select {
	case <-h.serve:
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

// TestWatchHeartbeat: an idle stream pushes heartbeat frames at the client's
// requested cadence, repeating the last epoch, and a subscription during a
// drain is rejected outright.
func TestWatchHeartbeat(t *testing.T) {
	h := startHarness(t, t.TempDir(), Options{}, overcast.AllocatorOptions{})
	c := h.dial()
	defer c.Close()
	mustJoin(t, c, []int{0, 3, 9}, 1)

	wc := h.dial()
	defer wc.Close()
	w, err := wc.Watch(30 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	first, err := w.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first.Epoch != 1 {
		t.Fatalf("initial epoch = %d, want 1", first.Epoch)
	}
	hb, err := w.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !hb.Heartbeat || hb.Seq != 2 || hb.Epoch != first.Epoch {
		t.Fatalf("heartbeat frame = %+v", hb)
	}

	// Pre-dial before draining: the listener closes once the drain finishes,
	// but established connections are served until DrainTimeout.
	late := h.dial()
	defer late.Close()
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	lw, err := late.Watch(0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = lw.Next()
	rpcErr := new(RPCError)
	if err == nil || (errors.As(err, &rpcErr) && rpcErr.Code != ErrCodeDraining) {
		t.Fatalf("watch during drain = %v, want %s rejection or closed conn", err, ErrCodeDraining)
	}
	select {
	case <-h.serve:
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

// TestWatchSlowConsumer drives serveWatch over a synchronous in-memory pipe:
// with the stream's write side blocked on an unread event and the buffer
// full, further mutations must kill the watcher (never block the mutation
// path) and the stream must end with the slow-consumer error frame.
func TestWatchSlowConsumer(t *testing.T) {
	nw, err := overcast.WaxmanNetwork(16, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := overcast.NewAllocator(nw, overcast.AllocatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer alloc.Close()
	srv, err := NewServer(alloc, Options{SocketPath: filepath.Join(t.TempDir(), "s.sock"), WatchBuffer: 1})
	if err != nil {
		t.Fatal(err)
	}

	client, server := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	go func() {
		srv.serveWatch(bufio.NewWriter(server), 7, nil)
		server.Close()
		close(done)
	}()

	r := bufio.NewReader(client)
	readFrame := func() *Response {
		t.Helper()
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read watch frame: %v", err)
		}
		resp, err := DecodeResponse(line[:len(line)-1])
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := readFrame(); !resp.OK || resp.Watch == nil || resp.Watch.Seq != 1 {
		t.Fatalf("initial frame = %+v", resp)
	}

	// Three notifications with nothing read: the first blocks serveWatch on
	// the synchronous pipe, the second fills the one-slot buffer, the third
	// must overflow and kill the watcher rather than wait.
	for i := 0; i < 3; i++ {
		srv.mu.Lock()
		srv.notifyWatchersLocked()
		srv.mu.Unlock()
	}
	srv.watchMu.Lock()
	if len(srv.watchers) != 0 {
		srv.watchMu.Unlock()
		t.Fatal("overflowed watcher still registered")
	}
	srv.watchMu.Unlock()

	// Drain the stream: pending event frames, then the terminal error.
	sawSlowConsumer := false
	for !sawSlowConsumer {
		resp := readFrame()
		if !resp.OK {
			if resp.Code != ErrCodeSlowConsumer || resp.ID != 7 {
				t.Fatalf("terminal frame = %+v, want %s", resp, ErrCodeSlowConsumer)
			}
			sawSlowConsumer = true
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveWatch did not return after slow-consumer kill")
	}
}
