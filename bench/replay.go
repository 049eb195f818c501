package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"overcast/internal/admin"
)

// readPeriod paces connection 2's open loop of cached snapshot reads: 30/s,
// the dashboard traffic the daemon promises never queues behind mutations.
const readPeriod = time.Second / 30

// maxReplay bounds a replay that cannot reach its minimum of fresh
// allocations: a traced run replays twice and must still end within the
// three minutes a run may take.
const maxReplay = 80 * time.Second

// interludeEvery is how much replay time passes between two interludes of a
// timed replay (see replay).
const interludeEvery = time.Second

// congestionTol is the feasibility slack every served allocation must meet.
const congestionTol = 1e-6

// replayResult is what one replay of a request stream measured. Latency
// samples are in milliseconds.
type replayResult struct {
	elapsed time.Duration   // stream start to stop, interludes excluded
	allocs  int             // fresh allocations (refreshing snapshots)
	doneAt  []time.Duration // stream start to each fresh allocation's end, interludes excluded

	alloc, join, leave, read, late []float64

	// Over the first prefix allocations: sums of each allocation's
	// min rate/demand, throughput and encoded frame size, and (traced runs)
	// the daemon's counters right after the last of them.
	fairSum, throughputSum float64
	snapshotBytes          int
	stats                  *admin.StatsResult

	// Traced runs only: wall time of the refreshes the daemon served by warm
	// repair and by a cold solve.
	warmMs, coldMs float64

	attempted, failed int
	violations        []string
}

func (r *replayResult) violate(format string, args ...any) {
	r.failed++
	if len(r.violations) < 5 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

// checkAllocation is the correctness gate on a served allocation: feasible
// within congestionTol and every session rate finite and positive. With a
// non-nil want it must also cover exactly the active sessions.
func checkAllocation(s *admin.SnapshotResult, want map[uint64]bool) error {
	if !(s.MaxCongestion <= 1+congestionTol) {
		return fmt.Errorf("max congestion %v exceeds 1+%g", s.MaxCongestion, congestionTol)
	}
	if want != nil && len(s.Sessions) != len(want) {
		return fmt.Errorf("%d sessions allocated, %d active", len(s.Sessions), len(want))
	}
	for _, a := range s.Sessions {
		if want != nil && !want[a.Session] {
			return fmt.Errorf("session %d allocated but not active", a.Session)
		}
		if !finitePositive(a.Rate) || !finitePositive(a.Demand) {
			return fmt.Errorf("session %d rate %v demand %v", a.Session, a.Rate, a.Demand)
		}
	}
	return nil
}

// fairShare is an allocation's min over sessions of rate/demand.
func fairShare(s *admin.SnapshotResult) float64 {
	share := math.Inf(1)
	for _, a := range s.Sessions {
		share = min(share, a.Rate/a.Demand)
	}
	return share
}

// replay sends the stream over c (connection 1) as a closed loop until at
// least `seconds` have passed and at least minAllocs fresh allocations are
// done, with connection 2's reader running from the first fresh allocation
// on. With a non-nil interlude, every interludeEvery of replay time both
// connections go idle and interlude runs; its time does not count as
// replay time.
func replay(w workload, st *stream, d *daemon, c *admin.Client, seconds time.Duration, minAllocs int, rec *recorder, interlude func() error) (*replayResult, error) {
	res := &replayResult{}
	tokens := make([]uint64, len(st.joins))
	active := make(map[uint64]bool)
	colds := 0 // the daemon's cold-solve count at the last stats read
	var rd *reader
	defer func() {
		if rd != nil {
			rd.close(res)
		}
	}()
	start := time.Now()
	var idle, lastInterlude time.Duration
	clock := func() time.Duration { return time.Since(start) - idle }
	for _, o := range st.ops {
		elapsed := clock()
		if (res.allocs >= minAllocs && elapsed >= seconds) || elapsed >= maxReplay {
			break
		}
		if interlude != nil && elapsed-lastInterlude >= interludeEvery {
			t0 := time.Now()
			rd.pause()
			err := interlude()
			rd.resume()
			idle += time.Since(t0)
			lastInterlude = elapsed
			if err != nil {
				return nil, err
			}
		}
		if (o.kind == opLeave && tokens[o.slot] == 0) || (o.kind == opRefresh && len(active) == 0) {
			continue // the join failed (already counted), or nothing to allocate
		}
		var (
			p   *admin.WirePlacement
			l   *admin.LeaveResult
			s   *admin.SnapshotResult
			err error
		)
		t0 := time.Now()
		switch o.kind {
		case opJoin:
			p, err = c.Join(st.joins[o.slot].Members, st.joins[o.slot].Demand)
		case opLeave:
			l, err = c.Leave(tokens[o.slot])
		case opFault:
			kind := admin.FaultLinkUp
			if o.down {
				kind = admin.FaultLinkDown
			}
			_, err = c.Fault(o.from, o.to, kind, 0)
		case opRefresh:
			s, err = c.Snapshot(true)
		}
		end := time.Now()
		lat := ms(end.Sub(t0))
		res.attempted++
		name := o.kind.String()
		if err != nil {
			rec.add(name, t0, t0, end)
			res.violate("%s: %v", o.kind, err)
			continue
		}
		switch o.kind {
		case opJoin:
			res.join = append(res.join, lat)
			if p.Session == 0 || active[p.Session] || !finitePositive(p.Rate) {
				res.violate("join slot %d: token %d rate %v", o.slot, p.Session, p.Rate)
			}
			tokens[o.slot] = p.Session
			active[p.Session] = true
		case opLeave:
			res.leave = append(res.leave, lat)
			delete(active, tokens[o.slot])
			if l.Active != len(active) {
				res.violate("leave slot %d: daemon reports %d active, want %d", o.slot, l.Active, len(active))
			}
		case opRefresh:
			res.alloc = append(res.alloc, lat)
			res.allocs++
			res.doneAt = append(res.doneAt, end.Sub(start)-idle)
			if err := checkAllocation(s, active); err != nil {
				res.violate("refresh %d: %v", res.allocs, err)
			}
			if res.allocs <= w.prefix {
				frame, err := admin.EncodeFrame(s)
				if err != nil {
					return nil, err
				}
				res.snapshotBytes += len(frame)
				res.fairSum += fairShare(s)
				res.throughputSum += s.Throughput
			}
			// A traced run reads the counters after every refresh to tell
			// warm repairs from cold solves.
			if rec != nil {
				res.attempted++
				if stats, err := c.Stats(); err != nil {
					res.violate("stats: %v", err)
				} else {
					if stats.Allocator.ColdSolves > colds {
						name, res.coldMs = "refresh.cold", res.coldMs+lat
					} else {
						name, res.warmMs = "refresh.warm", res.warmMs+lat
					}
					colds = stats.Allocator.ColdSolves
					if res.allocs == w.prefix {
						res.stats = stats
					}
				}
			}
			if rd == nil {
				if rd, err = startReader(d.sock, rec); err != nil {
					return nil, err
				}
			}
		}
		rec.add(name, t0, t0, end)
	}
	res.elapsed = clock()
	if res.allocs < minAllocs {
		return nil, fmt.Errorf("%s: %d fresh allocations in %v, want %d",
			w.name, res.allocs, res.elapsed.Round(time.Millisecond), minAllocs)
	}
	return res, nil
}

// reader is connection 2: an open loop of cached snapshot reads, each timed
// from when it was due, so a stall also counts against the reads queued
// behind it.
type reader struct {
	c    *admin.Client
	rec  *recorder
	quit chan struct{}
	done chan struct{}

	// mu is held by the loop around each read and by a pause throughout.
	// Every resume bumps epoch, and the loop restarts its schedule, so the
	// pause delays no read.
	mu    sync.Mutex
	epoch int

	lat, late         []float64
	attempted, failed int
	violations        []string
}

func startReader(sock string, rec *recorder) (*reader, error) {
	c, err := admin.Dial(sock, 2*time.Second)
	if err != nil {
		return nil, err
	}
	r := &reader{c: c, rec: rec, quit: make(chan struct{}), done: make(chan struct{})}
	go r.loop()
	return r, nil
}

// pause waits for the read in flight, if any, and holds every later one
// until resume. Both do nothing on a nil reader.
func (r *reader) pause() {
	if r != nil {
		r.mu.Lock()
	}
}

func (r *reader) resume() {
	if r != nil {
		r.epoch++
		r.mu.Unlock()
	}
}

func (r *reader) loop() {
	defer close(r.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var start time.Time
	epoch := -1
	for k := 0; ; k++ {
		r.mu.Lock()
		if r.epoch != epoch {
			epoch, start, k = r.epoch, time.Now(), 0
		}
		r.mu.Unlock()
		due := start.Add(time.Duration(k) * readPeriod)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-r.quit:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-r.quit:
				return
			default:
			}
		}
		r.mu.Lock()
		if r.epoch != epoch { // paused while waiting: restart the schedule
			r.mu.Unlock()
			continue
		}
		sent := time.Now()
		s, err := r.c.Snapshot(false)
		end := time.Now()
		r.mu.Unlock()
		r.rec.add("read", due, sent, end)
		r.attempted++
		if err == nil {
			err = checkAllocation(s, nil)
		}
		if err != nil {
			r.failed++
			if len(r.violations) < 5 {
				r.violations = append(r.violations, fmt.Sprintf("read: %v", err))
			}
			continue
		}
		r.lat = append(r.lat, ms(end.Sub(due)))
		r.late = append(r.late, ms(sent.Sub(due)))
	}
}

// close stops the loop, waits for it and folds its samples into res.
func (r *reader) close(res *replayResult) {
	close(r.quit)
	<-r.done
	r.c.Close()
	res.read, res.late = r.lat, r.late
	res.attempted += r.attempted
	res.failed += r.failed
	res.violations = append(res.violations, r.violations...)
}

// recorder keeps client-side spans in memory for a traced run. A nil
// recorder records nothing.
type recorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

// span is one client-side request: times are nanoseconds since the traced
// run began; every request's parent is the workload span, id 1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
	Due    int64  `json:"due_ns"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: []span{{ID: 1, Op: "workload"}}}
}

func (r *recorder) add(op string, due, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: 1, Op: op,
		Due: int64(due.Sub(r.base)), Start: int64(start.Sub(r.base)), End: int64(end.Sub(r.base)),
	})
	r.mu.Unlock()
}

// finish closes the workload span and returns every span.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[0].End = int64(time.Since(r.base))
	return r.spans
}

// nearestRank returns the p-quantile (0 < p <= 1) of samples by the
// nearest-rank method, and how many samples lie above it.
func nearestRank(samples []float64, p float64) (value float64, above int) {
	if len(samples) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s) - rank
}

// minAbove is how many samples must lie above a reported percentile for it
// to count as supported by the run.
const minAbove = 10
