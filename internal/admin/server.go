package admin

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"overcast"
)

// Options configures a Server.
type Options struct {
	// SocketPath is the unix socket the daemon serves on (required). A
	// stale socket file at the path is removed at Listen.
	SocketPath string
	// StatePath enables crash recovery: the daemon periodically persists
	// its session population and last materialized allocation there
	// (atomically, via rename), and writes a final snapshot on drain.
	// Empty disables persistence.
	StatePath string
	// SnapshotEvery is the periodic persistence cadence (default 30s;
	// only meaningful with StatePath set).
	SnapshotEvery time.Duration
	// MaxSessions rejects joins beyond this many active sessions (0 =
	// unlimited).
	MaxSessions int
	// MaxCongestion rejects joins that would push the online max link
	// congestion above this threshold; the join is rolled back exactly
	// (0 = unlimited). Congestion is the online-placement bound on how
	// much repair restoring ε-feasibility needs, so this is the cheap
	// admission proxy.
	MaxCongestion float64
	// StrictAdmission, with a positive Allocator RepairPhaseBudget,
	// probes a refresh after each join once the allocator is anchored:
	// when warm repair cannot restore ε-feasibility within the budget
	// (the refresh fell back to a cold solve mid-repair), the join is
	// rolled back and rejected.
	StrictAdmission bool
	// DrainTimeout bounds how long a drain waits for idle client
	// connections before force-closing them (default 5s).
	DrainTimeout time.Duration
	// WatchBuffer is the per-watcher event buffer (default 64). A watch
	// client that falls more than this many epoch changes behind is
	// disconnected with ErrCodeSlowConsumer instead of back-pressuring
	// mutations.
	WatchBuffer int
	// Logf receives daemon log lines (nil = silent).
	Logf func(format string, args ...any)
}

// sessionEntry is the daemon's record of one live session.
type sessionEntry struct {
	id      overcast.SessionID
	members []int
	demand  float64
}

// Server owns a root Allocator and serves the admin protocol over a unix
// socket. All allocator mutations (join, leave, rebalance, refreshing
// snapshots) are serialized under one lock; cached-snapshot reads, pings,
// and frame handling run concurrently. See the package comment for the wire
// protocol.
type Server struct {
	alloc *overcast.Allocator
	opts  Options
	start time.Time

	mu        sync.Mutex // serializes allocator access and the session table
	sessions  map[uint64]*sessionEntry
	order     []uint64 // active tokens in admission order (= allocator dense order)
	nextToken uint64
	rejects   int
	saves     int
	restored  bool

	snapMu sync.RWMutex
	cur    *SnapshotResult // last materialized allocation (nil before the first)

	statMu sync.Mutex
	rpcs   map[string]int

	watchMu  sync.Mutex // nested inside s.mu (registration and notification)
	watchers map[*watcher]struct{}

	ln         net.Listener
	connMu     sync.Mutex
	conns      map[net.Conn]struct{}
	connWG     sync.WaitGroup
	draining   atomic.Bool
	drainOnce  sync.Once
	drainStart chan struct{} // closed when a drain begins (terminates watch streams)
	drained    chan struct{}
}

// watcher is one subscribed watch stream's server-side endpoint. Events are
// fanned out non-blocking: an overflowing buffer closes dead, and serveWatch
// terminates the stream with ErrCodeSlowConsumer.
type watcher struct {
	ch   chan *WatchEvent
	dead chan struct{}
}

// NewServer wraps alloc (which the server takes ownership of: it must not be
// used concurrently elsewhere) in an admin server.
func NewServer(alloc *overcast.Allocator, opts Options) (*Server, error) {
	if alloc == nil {
		return nil, fmt.Errorf("admin: nil allocator")
	}
	if opts.SocketPath == "" {
		return nil, fmt.Errorf("admin: Options.SocketPath is required")
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 30 * time.Second
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 5 * time.Second
	}
	if opts.WatchBuffer <= 0 {
		opts.WatchBuffer = 64
	}
	return &Server{
		alloc:      alloc,
		opts:       opts,
		start:      time.Now(),
		sessions:   make(map[uint64]*sessionEntry),
		rpcs:       make(map[string]int),
		conns:      make(map[net.Conn]struct{}),
		watchers:   make(map[*watcher]struct{}),
		drainStart: make(chan struct{}),
		drained:    make(chan struct{}),
	}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Restore loads the state snapshot from Options.StatePath, if one exists,
// and replays its active sessions through warm joins so the allocator's
// population matches the pre-crash daemon's. The persisted allocation is
// served as the current snapshot (bit-identical to what the pre-crash daemon
// last persisted) until the next refresh recomputes it. Returns the number
// of sessions restored; a missing state file restores zero and is not an
// error. A file whose session tokens are zero, repeated or above its
// next_token is rejected before any session rejoins, and one whose session
// fails to rejoin leaves no session joined. Must be called before Listen.
func (s *Server) Restore() (int, error) {
	if s.opts.StatePath == "" {
		return 0, nil
	}
	raw, err := os.ReadFile(s.opts.StatePath)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("admin: restore: %w", err)
	}
	var st persistedState
	if err := json.Unmarshal(raw, &st); err != nil {
		return 0, fmt.Errorf("admin: restore: malformed state file %s: %w", s.opts.StatePath, err)
	}
	if st.V != ProtocolVersion {
		return 0, fmt.Errorf("admin: restore: state file version %d, want %d", st.V, ProtocolVersion)
	}
	// Check every token before the first Join, so a bad file leaves the
	// allocator untouched: a token above next_token would be handed out again
	// by the next join while its session is still live.
	seen := make(map[uint64]bool, len(st.Sessions))
	for _, ps := range st.Sessions {
		if ps.Token == 0 || ps.Token > st.NextToken || seen[ps.Token] {
			return 0, fmt.Errorf("admin: restore: invalid or duplicate session token %d (next_token %d)", ps.Token, st.NextToken)
		}
		seen[ps.Token] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]overcast.SessionID, 0, len(st.Sessions))
	for _, ps := range st.Sessions {
		p, err := s.alloc.Join(overcast.Session{Members: ps.Members, Demand: ps.Demand})
		if err != nil {
			// Roll back the sessions already rejoined: a bad file restores
			// nothing.
			err = fmt.Errorf("admin: restore: rejoin session %d: %w", ps.Token, err)
			for _, id := range ids {
				if lerr := s.alloc.Leave(id); lerr != nil {
					err = errors.Join(err, lerr)
				}
			}
			return 0, err
		}
		ids = append(ids, p.Session)
	}
	for i, ps := range st.Sessions {
		s.sessions[ps.Token] = &sessionEntry{id: ids[i], members: append([]int(nil), ps.Members...), demand: ps.Demand}
		s.order = append(s.order, ps.Token)
	}
	s.nextToken = st.NextToken
	s.restored = true
	if st.Snapshot != nil {
		s.snapMu.Lock()
		s.cur = st.Snapshot
		s.snapMu.Unlock()
	}
	s.logf("restored %d active sessions from %s", len(st.Sessions), s.opts.StatePath)
	return len(st.Sessions), nil
}

// Listen creates the unix socket, removing a stale socket file first.
func (s *Server) Listen() error {
	if err := os.Remove(s.opts.SocketPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("admin: remove stale socket: %w", err)
	}
	ln, err := net.Listen("unix", s.opts.SocketPath)
	if err != nil {
		return fmt.Errorf("admin: listen: %w", err)
	}
	s.ln = ln
	return nil
}

// Serve accepts and serves admin connections until a drain completes. It
// returns nil after a graceful drain (the final state snapshot is on disk by
// then) and the listener's error otherwise. Listen must have succeeded.
func (s *Server) Serve() error {
	if s.ln == nil {
		return fmt.Errorf("admin: Serve before Listen")
	}
	stopSaver := make(chan struct{})
	if s.opts.StatePath != "" {
		go s.periodicSave(stopSaver)
	}
	defer close(stopSaver)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				<-s.drained
				return nil
			}
			return fmt.Errorf("admin: accept: %w", err)
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

// Drain initiates graceful shutdown: the listener closes, in-flight requests
// finish (idle connections are force-closed after Options.DrainTimeout), a
// final state snapshot is persisted, and Serve returns nil. Idempotent and
// safe from any goroutine (including RPC handlers and signal handlers).
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainStart) // watch streams send a final draining frame and close
		go s.finishDrain()
	})
}

func (s *Server) finishDrain() {
	if s.ln != nil {
		s.ln.Close()
	}
	done := make(chan struct{})
	go func() { s.connWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.opts.DrainTimeout):
		s.logf("drain: force-closing idle connections after %v", s.opts.DrainTimeout)
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		<-done
	}
	s.mu.Lock()
	s.saveStateLocked()
	s.mu.Unlock()
	s.logf("drain complete: %d active sessions persisted", s.activeCount())
	close(s.drained)
}

func (s *Server) activeCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// periodicSave persists the daemon state every Options.SnapshotEvery until
// stopped.
func (s *Server) periodicSave(stop chan struct{}) {
	t := time.NewTicker(s.opts.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.mu.Lock()
			err := s.saveStateLocked()
			s.mu.Unlock()
			if err != nil {
				s.logf("periodic state save failed: %v", err)
			}
		}
	}
}

// persistedSession and persistedState are the on-disk crash-recovery format:
// the active session population (tokens are stable across restarts) plus the
// last materialized allocation, versioned like the wire protocol.
type persistedSession struct {
	Token   uint64  `json:"token"`
	Members []int   `json:"members"`
	Demand  float64 `json:"demand"`
}

type persistedState struct {
	V         int                `json:"v"`
	NextToken uint64             `json:"next_token"`
	Sessions  []persistedSession `json:"sessions"`
	Snapshot  *SnapshotResult    `json:"snapshot,omitempty"`
}

// saveStateLocked persists the session table and cached allocation
// atomically (temp file + rename). Caller holds s.mu.
func (s *Server) saveStateLocked() error {
	if s.opts.StatePath == "" {
		return nil
	}
	st := persistedState{V: ProtocolVersion, NextToken: s.nextToken}
	for _, tok := range s.order {
		e := s.sessions[tok]
		st.Sessions = append(st.Sessions, persistedSession{Token: tok, Members: e.members, Demand: e.demand})
	}
	s.snapMu.RLock()
	st.Snapshot = s.cur
	s.snapMu.RUnlock()
	raw, err := json.Marshal(&st)
	if err != nil {
		return fmt.Errorf("admin: save state: %w", err)
	}
	tmp := s.opts.StatePath + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("admin: save state: %w", err)
	}
	if err := os.Rename(tmp, s.opts.StatePath); err != nil {
		return fmt.Errorf("admin: save state: %w", err)
	}
	s.saves++
	return nil
}

// handleConn serves one client connection: newline-delimited request frames
// in, one response frame per request out. Decode failures produce error
// responses without closing the connection (frames re-sync at the next
// newline); connections close once the daemon drains.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		s.connWG.Done()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), MaxFrameBytes)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		resp, startDrain, watch := s.dispatch(sc.Bytes())
		if watch != nil {
			// The connection becomes a one-way event stream; serveWatch
			// writes every remaining frame and the loop never resumes.
			s.serveWatch(w, watch.id, watch.params)
			return
		}
		if startDrain {
			// Enter the draining state before acknowledging: a client that
			// sees the drain reply must find every other connection already
			// refusing mutations.
			s.Drain()
		}
		frame, err := EncodeFrame(resp)
		if err != nil {
			// A result too large to frame must not kill the connection
			// silently; degrade to an error response.
			frame, _ = EncodeFrame(&Response{V: ProtocolVersion, ID: resp.ID, Code: ErrCodeInternal, Error: err.Error()})
		}
		if _, err := w.Write(frame); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		if s.draining.Load() {
			return
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, net.ErrClosed) {
		// Oversized or torn frame: report once, then drop the connection
		// (the stream offset is unrecoverable).
		frame, _ := EncodeFrame(&Response{V: ProtocolVersion, Code: ErrCodeBadFrame, Error: fmt.Sprintf("unreadable frame: %v", err)})
		conn.Write(frame)
	}
}

// watchStart asks handleConn to hand the connection over to serveWatch.
type watchStart struct {
	id     uint64
	params *WatchParams
}

// dispatch decodes and executes one request frame, returning the response,
// whether a drain should start after it is written, and a non-nil watchStart
// when the request converts the connection into a watch stream (the response
// is nil then; serveWatch writes the initial frame itself).
func (s *Server) dispatch(line []byte) (*Response, bool, *watchStart) {
	req, err := DecodeRequest(line)
	if err != nil {
		var fe *FrameError
		if errors.As(err, &fe) {
			s.countRPC("invalid")
			return errResp(fe.ID, fe.Code, fe.Msg), false, nil
		}
		s.countRPC("invalid")
		return errResp(0, ErrCodeBadFrame, err.Error()), false, nil
	}
	s.countRPC(req.Op)
	resp := &Response{V: ProtocolVersion, ID: req.ID, OK: true}
	switch req.Op {
	case OpPing:
		resp.Ping = &PingResult{Protocol: ProtocolVersion, Draining: s.draining.Load()}
	case OpJoin:
		res, code, err := s.handleJoin(req.Join)
		if err != nil {
			return errResp(req.ID, code, err.Error()), false, nil
		}
		resp.Join = res
	case OpLeave:
		res, code, err := s.handleLeave(req.Leave)
		if err != nil {
			return errResp(req.ID, code, err.Error()), false, nil
		}
		resp.Leave = res
	case OpRebalance:
		res, code, err := s.handleRebalance()
		if err != nil {
			return errResp(req.ID, code, err.Error()), false, nil
		}
		resp.Rebalance = res
	case OpSnapshot:
		refresh := req.Snapshot != nil && req.Snapshot.Refresh
		res, code, err := s.handleSnapshot(refresh)
		if err != nil {
			return errResp(req.ID, code, err.Error()), false, nil
		}
		resp.Snapshot = res
	case OpFault:
		res, code, err := s.handleFault(req.Fault)
		if err != nil {
			return errResp(req.ID, code, err.Error()), false, nil
		}
		resp.Fault = res
	case OpStats:
		resp.Stats = s.handleStats()
	case OpMetrics:
		resp.Metrics = &MetricsResult{Text: PrometheusText(s.handleStats())}
	case OpWatch:
		if s.draining.Load() {
			return errResp(req.ID, ErrCodeDraining, "daemon is draining"), false, nil
		}
		return nil, false, &watchStart{id: req.ID, params: req.Watch}
	case OpDrain:
		if s.draining.Load() {
			return errResp(req.ID, ErrCodeDraining, "daemon is already draining"), false, nil
		}
		resp.Drain = &DrainResult{Active: s.activeCount()}
		return resp, true, nil
	}
	return resp, false, nil
}

func errResp(id uint64, code, msg string) *Response {
	return &Response{V: ProtocolVersion, ID: id, Code: code, Error: msg}
}

func (s *Server) countRPC(op string) {
	s.statMu.Lock()
	s.rpcs[op]++
	s.statMu.Unlock()
}

// wireTree converts an immutable OverlayTree into its wire form (private
// copies — wire frames must not alias allocator-owned slices).
func wireTree(t overcast.OverlayTree) WireTree {
	pairs := make([][2]int, len(t.Pairs()))
	copy(pairs, t.Pairs())
	return WireTree{Pairs: pairs, Rate: t.Rate(), Hops: t.PhysicalHops()}
}

func wirePlacement(tok uint64, members []int, p overcast.Placement) WirePlacement {
	wp := WirePlacement{
		Session: tok,
		Epoch:   p.Epoch,
		Rate:    p.Rate,
		Members: append([]int(nil), members...),
		Tree:    wireTree(p.Tree),
	}
	for _, t := range p.Trees {
		wp.Trees = append(wp.Trees, wireTree(t))
	}
	return wp
}

// handleJoin admits a session through the admission policy. Every rejection
// leaves the allocator exactly as it was (joins are rolled back via the
// exact Leave rollback).
func (s *Server) handleJoin(params *JoinParams) (*JoinResult, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil, ErrCodeDraining, fmt.Errorf("daemon is draining")
	}
	if s.opts.MaxSessions > 0 && len(s.order) >= s.opts.MaxSessions {
		s.rejects++
		return nil, ErrCodeAdmission, fmt.Errorf("admission rejected: %d active sessions at MaxSessions limit", len(s.order))
	}
	p, err := s.alloc.Join(overcast.Session{Members: params.Members, Demand: params.Demand})
	if err != nil {
		return nil, ErrCodeBadParams, err
	}
	// Admit provisionally — admission rejections below roll the join back
	// exactly (the allocator's Leave rollback) and remove the entry again.
	s.nextToken++
	tok := s.nextToken
	s.sessions[tok] = &sessionEntry{id: p.Session, members: append([]int(nil), params.Members...), demand: params.Demand}
	s.order = append(s.order, tok)
	reject := func(why error) (*JoinResult, string, error) {
		if err := s.alloc.Leave(p.Session); err != nil {
			return nil, ErrCodeInternal, fmt.Errorf("admission rollback failed: %v", err)
		}
		delete(s.sessions, tok)
		s.order = s.order[:len(s.order)-1]
		s.nextToken--
		s.rejects++
		return nil, ErrCodeAdmission, why
	}
	if s.opts.MaxCongestion > 0 {
		if c := s.alloc.MaxCongestion(); c > s.opts.MaxCongestion {
			return reject(fmt.Errorf("admission rejected: online congestion %.4f exceeds MaxCongestion %.4f", c, s.opts.MaxCongestion))
		}
	}
	if s.opts.StrictAdmission && s.alloc.Stats().ColdSolves > 0 {
		// Probe: can warm repair restore ε-feasibility for the grown
		// population within the configured RepairPhaseBudget? A fallback
		// to cold mid-repair means it could not.
		before := s.alloc.Stats().WarmFallbacks
		snap, err := s.alloc.Snapshot()
		if err != nil {
			return nil, ErrCodeInternal, fmt.Errorf("admission probe refresh: %v", err)
		}
		if s.alloc.Stats().WarmFallbacks > before {
			return reject(fmt.Errorf("admission rejected: warm repair exceeded RepairPhaseBudget restoring feasibility"))
		}
		// The probe paid for a fresh allocation; publish it.
		s.publishSnapshotLocked(snap, s.order)
	}
	s.notifyWatchersLocked()
	return &JoinResult{Placement: wirePlacement(tok, params.Members, p)}, "", nil
}

func (s *Server) handleLeave(params *LeaveParams) (*LeaveResult, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil, ErrCodeDraining, fmt.Errorf("daemon is draining")
	}
	e := s.sessions[params.Session]
	if e == nil {
		return nil, ErrCodeUnknownSession, fmt.Errorf("no live session with token %d", params.Session)
	}
	if err := s.alloc.Leave(e.id); err != nil {
		return nil, ErrCodeInternal, err
	}
	delete(s.sessions, params.Session)
	for i, tok := range s.order {
		if tok == params.Session {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.notifyWatchersLocked()
	return &LeaveResult{Session: params.Session, Active: len(s.order)}, "", nil
}

// handleFault injects one underlay fault event into the allocator. An
// effective fault (one that changes the link's capacity) advances the
// allocator epoch, so watch streams see one frame per fault; a redundant
// event (link-up on a healthy link, nested recovery) is a no-op and notifies
// nobody. The materialized snapshot is NOT refreshed here — the post-fault
// allocation is recomputed lazily by the next refreshing read, exactly like
// joins.
func (s *Server) handleFault(params *FaultParams) (*FaultResult, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil, ErrCodeDraining, fmt.Errorf("daemon is draining")
	}
	lf := overcast.LinkFault{From: params.From, To: params.To, Factor: params.Factor}
	switch params.Kind {
	case FaultLinkDown:
		lf.Kind = overcast.FaultLinkDown
	case FaultLinkUp:
		lf.Kind = overcast.FaultLinkUp
	case FaultDrift:
		lf.Kind = overcast.FaultDrift
	}
	before := s.alloc.Epoch()
	cap, err := s.alloc.Fault(lf)
	if err != nil {
		return nil, ErrCodeBadParams, err
	}
	if s.alloc.Epoch() != before {
		s.notifyWatchersLocked()
	}
	return &FaultResult{
		From:           params.From,
		To:             params.To,
		Kind:           params.Kind,
		Capacity:       cap,
		Epoch:          s.alloc.Epoch(),
		UnderlayEvents: s.alloc.Stats().UnderlayEvents,
	}, "", nil
}

func (s *Server) handleRebalance() (*RebalanceResult, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil, ErrCodeDraining, fmt.Errorf("daemon is draining")
	}
	if len(s.order) == 0 {
		return nil, ErrCodeInternal, fmt.Errorf("no active sessions to rebalance")
	}
	ps, err := s.alloc.Rebalance()
	if err != nil {
		return nil, ErrCodeInternal, err
	}
	res := &RebalanceResult{Epoch: s.alloc.Epoch()}
	for i, p := range ps {
		tok := s.order[i]
		res.Placements = append(res.Placements, wirePlacement(tok, s.sessions[tok].members, p))
	}
	// The refresh behind Rebalance already did the solve work; materialize
	// the same allocation for concurrent snapshot readers.
	snap, err := s.alloc.Snapshot()
	if err != nil {
		return nil, ErrCodeInternal, err
	}
	s.publishSnapshotLocked(snap, s.order)
	s.notifyWatchersLocked()
	return res, "", nil
}

// publishSnapshotLocked converts the allocation (dense arrival order) into a
// wire snapshot under the given token order and installs it as the cached
// current allocation. Caller holds s.mu; tokens[i] must be the session at
// dense index i.
func (s *Server) publishSnapshotLocked(a *overcast.Allocation, tokens []uint64) {
	res := &SnapshotResult{Epoch: s.alloc.Epoch(), Sessions: []WireAllocation{}}
	for i, tok := range tokens {
		e := s.sessions[tok]
		wa := WireAllocation{Session: tok, Rate: a.SessionRate(i)}
		if e != nil {
			wa.Demand = e.demand
			wa.Members = append([]int(nil), e.members...)
		}
		for _, t := range a.Trees(i) {
			wa.Trees = append(wa.Trees, WireTree{Pairs: t.Pairs, Rate: t.Rate, Hops: t.PhysicalHops})
		}
		res.Sessions = append(res.Sessions, wa)
	}
	res.Throughput = a.OverallThroughput()
	res.MinRate = a.MinSessionRate()
	res.MaxCongestion = a.MaxCongestion()
	s.snapMu.Lock()
	s.cur = res
	s.snapMu.Unlock()
}

func (s *Server) handleSnapshot(refresh bool) (*SnapshotResult, string, error) {
	if !refresh {
		s.snapMu.RLock()
		cur := s.cur
		s.snapMu.RUnlock()
		if cur != nil {
			return cur, "", nil
		}
		// Nothing materialized yet: fall through to a refreshing read.
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil, ErrCodeDraining, fmt.Errorf("daemon is draining")
	}
	if len(s.order) == 0 {
		return nil, ErrCodeInternal, fmt.Errorf("no active sessions to snapshot")
	}
	snap, err := s.alloc.Snapshot()
	if err != nil {
		return nil, ErrCodeInternal, err
	}
	s.publishSnapshotLocked(snap, s.order)
	s.snapMu.RLock()
	cur := s.cur
	s.snapMu.RUnlock()
	return cur, "", nil
}

func (s *Server) handleStats() *StatsResult {
	s.mu.Lock()
	res := &StatsResult{
		Active:        len(s.order),
		Admitted:      s.alloc.Admitted(),
		Epoch:         s.alloc.Epoch(),
		MaxCongestion: s.alloc.MaxCongestion(),
		Allocator:     s.alloc.Stats(),
		Daemon: DaemonStats{
			AdmissionRejected: s.rejects,
			SnapshotsSaved:    s.saves,
			Restored:          s.restored,
			UptimeSeconds:     time.Since(s.start).Seconds(),
			Draining:          s.draining.Load(),
		},
	}
	s.mu.Unlock()
	res.Daemon.RPCs = make(map[string]int)
	s.statMu.Lock()
	for op, n := range s.rpcs {
		res.Daemon.RPCs[op] = n
	}
	s.statMu.Unlock()
	return res
}

// notifyWatchersLocked fans the current epoch + materialized allocation out
// to every watch stream after a successful mutation. Caller holds s.mu, so
// events are enqueued in mutation order with distinct, increasing epochs.
// The send never blocks: a watcher whose buffer is full is disconnected
// (slow consumers must not back-pressure mutations).
func (s *Server) notifyWatchersLocked() {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if len(s.watchers) == 0 {
		return
	}
	ev := &WatchEvent{Epoch: s.alloc.Epoch()}
	s.snapMu.RLock()
	ev.Snapshot = s.cur
	s.snapMu.RUnlock()
	for w := range s.watchers {
		select {
		case w.ch <- ev:
		default:
			close(w.dead)
			delete(s.watchers, w)
		}
	}
}

// serveWatch owns the connection's write side for the rest of its life: the
// initial snapshot frame, one frame per epoch change, heartbeats when idle,
// and a terminal error frame (draining or slow-consumer) before close. Seq
// is assigned per-stream here, so shared fan-out events stay immutable.
func (s *Server) serveWatch(w *bufio.Writer, id uint64, params *WatchParams) {
	heartbeat := 30 * time.Second
	if params != nil && params.HeartbeatSeconds > 0 {
		heartbeat = time.Duration(params.HeartbeatSeconds * float64(time.Second))
	}
	wt := &watcher{ch: make(chan *WatchEvent, s.opts.WatchBuffer), dead: make(chan struct{})}

	// Register under s.mu so the initial frame's epoch and the queued
	// events form one gapless, duplicate-free sequence: every mutation
	// either committed before the epoch read here or enqueues an event.
	s.mu.Lock()
	first := &WatchEvent{Seq: 1, Epoch: s.alloc.Epoch()}
	s.snapMu.RLock()
	first.Snapshot = s.cur
	s.snapMu.RUnlock()
	s.watchMu.Lock()
	s.watchers[wt] = struct{}{}
	s.watchMu.Unlock()
	s.mu.Unlock()
	defer func() {
		s.watchMu.Lock()
		delete(s.watchers, wt)
		s.watchMu.Unlock()
	}()

	write := func(ev *WatchEvent) bool {
		frame, err := EncodeFrame(&Response{V: ProtocolVersion, ID: id, OK: true, Watch: ev})
		if err != nil {
			frame, _ = EncodeFrame(errResp(id, ErrCodeInternal, err.Error()))
		}
		if _, err := w.Write(frame); err != nil {
			return false
		}
		return w.Flush() == nil
	}
	writeFinal := func(code, msg string) {
		if frame, err := EncodeFrame(errResp(id, code, msg)); err == nil {
			w.Write(frame)
			w.Flush()
		}
	}

	if !write(first) {
		return
	}
	seq, lastEpoch, lastSnap := first.Seq, first.Epoch, first.Snapshot
	t := time.NewTicker(heartbeat)
	defer t.Stop()
	for {
		select {
		case ev := <-wt.ch:
			seq++
			out := *ev
			out.Seq = seq
			lastEpoch, lastSnap = out.Epoch, out.Snapshot
			if !write(&out) {
				return
			}
			t.Reset(heartbeat)
		case <-t.C:
			seq++
			if !write(&WatchEvent{Seq: seq, Epoch: lastEpoch, Heartbeat: true, Snapshot: lastSnap}) {
				return
			}
		case <-wt.dead:
			writeFinal(ErrCodeSlowConsumer,
				fmt.Sprintf("watch stream fell more than %d events behind; reconnect and resync", s.opts.WatchBuffer))
			return
		case <-s.drainStart:
			writeFinal(ErrCodeDraining, "daemon is draining")
			return
		}
	}
}
