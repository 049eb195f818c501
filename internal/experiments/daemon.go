package experiments

// The daemon-churn tier drives a live overcastd admin server with the churn
// replay harness as a synthetic client fleet: N client connections partition
// a deterministic arrival/departure trace, replay their sessions' events
// concurrently over the unix socket (joins, leaves, cached snapshot reads,
// and periodic refreshing snapshots), and the sustained admin ops/sec the
// daemon serves is the headline number recorded into the bench trajectory
// (BenchmarkDaemonChurn). Unlike the in-process warm-churn tier this
// measures the whole production path: wire codec, socket round-trips, the
// daemon's serialized-mutation lock, and the allocator behind it.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"overcast"
	"overcast/internal/admin"
	"overcast/internal/churn"
)

// DaemonChurnConfig describes one daemon churn replay.
type DaemonChurnConfig struct {
	ChurnTrace
	// Clients is the synthetic client-fleet size; sessions are partitioned
	// across connections and replayed concurrently (default 4).
	Clients int
	// SnapshotEvery issues a cached snapshot read every N of a client's
	// events (default 4); RefreshEvery issues a refreshing snapshot every
	// N events (default 8) — the consumer polling mix.
	SnapshotEvery, RefreshEvery int
	// Workers, RepairPhaseBudget and MaxSessions forward to the allocator
	// and the daemon's admission policy.
	Workers           int
	RepairPhaseBudget int
	MaxSessions       int
}

func (c *DaemonChurnConfig) normalize() error {
	if err := c.ChurnTrace.normalize(); err != nil {
		return err
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 4
	}
	if c.RefreshEvery <= 0 {
		c.RefreshEvery = 8
	}
	return nil
}

// DaemonChurnReport summarizes one replay.
type DaemonChurnReport struct {
	Config   DaemonChurnConfig
	Sessions int // sessions in the trace
	// Ops counts every admin RPC the fleet issued (joins, leaves, snapshot
	// reads, refreshes, and the final stats/drain); OpsPerSec is the
	// sustained daemon throughput over the replay.
	Ops       int
	OpsPerSec float64
	// Per-op splits. Rejected counts admission rejections (only nonzero
	// when the config sets an admission policy).
	Joins, Leaves, Snapshots, Refreshes, Rejected int
	FinalActive                                   int
	ReplayTime                                    time.Duration
}

// String renders the report for cmd/experiments output.
func (r DaemonChurnReport) String() string {
	return fmt.Sprintf("daemon n=%-6d clients=%-3d sessions=%-5d ops=%-6d joins=%-5d leaves=%-5d snaps=%-5d refresh=%-5d rejected=%-4d active=%-4d ops/s=%-10.1f replay=%v",
		r.Config.Nodes, r.Config.Clients, r.Sessions, r.Ops,
		r.Joins, r.Leaves, r.Snapshots, r.Refreshes, r.Rejected, r.FinalActive,
		r.OpsPerSec, r.ReplayTime.Round(time.Millisecond))
}

// clientWork is one connection's share of the trace: its sessions' events in
// trace order.
type clientWork struct {
	events []churn.Event
}

// DaemonChurnRun boots an overcastd admin server on a temp-dir unix socket,
// replays a deterministic churn trace through a concurrent synthetic client
// fleet, drains the daemon, and reports the sustained admin ops/sec. The
// trace partition is deterministic (session index modulo fleet size); event
// interleaving across connections is scheduler-dependent, which is the point
// — the daemon's serialized-mutation path is what is being measured.
func DaemonChurnRun(seed uint64, cfg DaemonChurnConfig) (*DaemonChurnReport, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	net, trace, err := cfg.generate(seed)
	if err != nil {
		return nil, err
	}

	alloc, err := overcast.NewAllocator(net, overcast.AllocatorOptions{
		Workers: cfg.Workers, RepairPhaseBudget: cfg.RepairPhaseBudget,
	})
	if err != nil {
		return nil, err
	}
	defer alloc.Close()

	dir, err := os.MkdirTemp("", "overcastd-churn-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := admin.NewServer(alloc, admin.Options{
		SocketPath:  filepath.Join(dir, "admin.sock"),
		MaxSessions: cfg.MaxSessions,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Listen(); err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	// Partition sessions across the fleet; each connection replays its own
	// sessions' events in trace order, so a session's leave always follows
	// its join even though connections interleave freely.
	work := make([]clientWork, cfg.Clients)
	for _, ev := range trace.Events {
		w := &work[ev.Session%cfg.Clients]
		w.events = append(w.events, ev)
	}

	rep := &DaemonChurnReport{Config: cfg, Sessions: len(trace.Sessions)}
	var (
		mu       sync.Mutex
		fleetErr error
		wg       sync.WaitGroup
	)
	count := func(dst *int, n int) {
		mu.Lock()
		*dst += n
		mu.Unlock()
	}
	fail := func(err error) {
		mu.Lock()
		if fleetErr == nil {
			fleetErr = err
		}
		mu.Unlock()
	}

	start := time.Now()
	for ci := range work {
		wg.Add(1)
		go func(w clientWork) {
			defer wg.Done()
			c, err := admin.Dial(filepath.Join(dir, "admin.sock"), 2*time.Second)
			if err != nil {
				fail(err)
				return
			}
			defer c.Close()
			tokens := make(map[int]uint64)
			ops, joins, leaves, snaps, refreshes, rejected := 0, 0, 0, 0, 0, 0
			for ei, ev := range w.events {
				spec := trace.Sessions[ev.Session]
				switch ev.Kind {
				case churn.Join:
					p, err := c.Join(spec.Members, spec.Demand)
					ops++
					if err != nil {
						if rpcErr, ok := err.(*admin.RPCError); ok && rpcErr.Code == admin.ErrCodeAdmission {
							rejected++
							continue
						}
						fail(fmt.Errorf("daemon churn join %d: %w", ev.Session, err))
						return
					}
					tokens[ev.Session] = p.Session
					joins++
				case churn.Leave:
					tok, ok := tokens[ev.Session]
					if !ok || spec.Depart >= cfg.Horizon {
						continue // rejected at join, or clipped to the horizon
					}
					if _, err := c.Leave(tok); err != nil {
						fail(fmt.Errorf("daemon churn leave %d: %w", ev.Session, err))
						return
					}
					ops++
					leaves++
				}
				if (ei+1)%cfg.RefreshEvery == 0 {
					if _, err := c.Snapshot(true); err != nil {
						// A refresh can race the last leave of the whole
						// trace (no active sessions) — tolerate only that.
						if rpcErr, ok := err.(*admin.RPCError); !ok || rpcErr.Code != admin.ErrCodeInternal {
							fail(fmt.Errorf("daemon churn refresh: %w", err))
							return
						}
					}
					ops++
					refreshes++
				} else if (ei+1)%cfg.SnapshotEvery == 0 {
					if _, err := c.Snapshot(false); err != nil {
						if rpcErr, ok := err.(*admin.RPCError); !ok || rpcErr.Code != admin.ErrCodeInternal {
							fail(fmt.Errorf("daemon churn snapshot: %w", err))
							return
						}
					}
					ops++
					snaps++
				}
			}
			count(&rep.Ops, ops)
			count(&rep.Joins, joins)
			count(&rep.Leaves, leaves)
			count(&rep.Snapshots, snaps)
			count(&rep.Refreshes, refreshes)
			count(&rep.Rejected, rejected)
		}(work[ci])
	}
	wg.Wait()
	if fleetErr != nil {
		srv.Drain()
		<-serveErr
		return nil, fleetErr
	}

	// One more client reads the final counters and drains the daemon.
	c, err := admin.Dial(filepath.Join(dir, "admin.sock"), 2*time.Second)
	if err != nil {
		return nil, err
	}
	st, err := c.Stats()
	if err != nil {
		c.Close()
		return nil, err
	}
	rep.FinalActive = st.Active
	if _, err := c.Drain(); err != nil {
		c.Close()
		return nil, err
	}
	c.Close()
	rep.Ops += 2
	if err := <-serveErr; err != nil {
		return nil, fmt.Errorf("daemon churn serve: %w", err)
	}
	rep.ReplayTime = time.Since(start)
	if s := rep.ReplayTime.Seconds(); s > 0 {
		rep.OpsPerSec = float64(rep.Ops) / s
	}
	return rep, nil
}
