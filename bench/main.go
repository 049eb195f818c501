// Command bench is overcast's end-to-end benchmark. Each workload deploys
// the allocator daemon in-process exactly as cmd/overcastd does, generates a
// request stream from the seed and replays it over the admin socket on two
// connections: a closed-loop mutation client (joins, leaves, link faults
// and a refreshing snapshot after every 4 churn events) and an open-loop
// reader of cached snapshots at 30/s. Every fresh allocation is checked for
// feasibility and coverage.
//
// A timed run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) records client-side spans and a CPU profile and prints the
// per-layer metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1200, "failed": 0, "metrics": {"alloc_p50_ms": {"value": 81.2, "unit": "ms"}, ...}}
//
// Usage, from the repository root (see bench/README.md):
//
//	bash bench/run.sh --workload churn-ip --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"overcast/internal/admin"
)

const (
	defaultSeed = 1
	// streamJoins sizes the generated stream well past what a run replays.
	streamJoins = 4000
	// overheadAllocs is how many fresh allocations a traced run replays
	// untraced first, to time against the traced replay.
	overheadAllocs = 30
)

func main() {
	name := flag.String("workload", "", "workload to run: churn-ip, churn-arb, flap-arb or cold-cdn-arb")
	seed := flag.Uint64("seed", defaultSeed, "seed the request stream is generated from")
	seconds := flag.Int("seconds", 25, "how long the run replays requests (it also completes the workload's quality prefix)")
	trace := flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	outDir := flag.String("out", "out", "directory a traced run writes its spans and CPU profile to")
	sockDir := flag.String("sockdir", ".bench_build", "directory for the daemons' admin sockets")
	flag.Parse()

	w, err := findWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1 || *seconds < 0) {
		err = fmt.Errorf("--trace must be 0 or 1 and --seconds non-negative")
	}
	var rep *report
	if err == nil {
		rep, err = run(w, *seed, options{
			seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1,
			sockDir: *sockDir, outDir: *outDir, setups: 21, kernels: 16,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// report is one run's result: metrics in print order plus the failure
// account.
type report struct {
	header            string
	metrics           []metric
	notes             []string
	attempted, failed int
	violations        []string
	// kernelMs is the reference kernel's median time in this run and scale
	// nominalKernel over it: every time the report holds is multiplied by
	// scale, every rate divided by it.
	kernelMs, scale float64
}

type metric struct {
	name, unit string
	value      float64
	note       string
}

func (r *report) add(name, unit string, value float64, note string) {
	r.metrics = append(r.metrics, metric{name, unit, value, note})
}

// addTime adds a time measured in this run, at reference speed.
func (r *report) addTime(name, unit string, value float64, note string) {
	r.add(name, unit, value*r.scale, note)
}

// calibrate sets the time scale from the reference kernel's samples.
func (r *report) calibrate(samples []float64) {
	r.kernelMs, _ = nearestRank(samples, 0.5)
	r.scale = ms(nominalKernel) / r.kernelMs
	r.notes = append(r.notes, fmt.Sprintf("reference kernel: median %.2f ms over %d runs, nominal %v: times scaled by %.4f",
		r.kernelMs, len(samples), nominalKernel, r.scale))
}

// addPercentiles reports the median of samples (ms) and their p90, noting
// the sample count and whether the p90 has minAbove samples above it. With
// tail unset the p90 is only printed among the notes, not reported as a
// metric.
func (r *report) addPercentiles(prefix string, samples []float64, tail bool) error {
	if len(samples) == 0 {
		return fmt.Errorf("no %s samples", prefix)
	}
	p50, _ := nearestRank(samples, 0.5)
	p90, above := nearestRank(samples, 0.9)
	r.addTime(prefix+"_p50_ms", "ms", p50, fmt.Sprintf("n=%d", len(samples)))
	note := fmt.Sprintf("n=%d, %d above", len(samples), above)
	if above < minAbove {
		note += fmt.Sprintf("; UNSUPPORTED: fewer than %d samples above", minAbove)
	}
	if tail {
		r.addTime(prefix+"_p90_ms", "ms", p90, note)
	} else {
		r.notes = append(r.notes, fmt.Sprintf("%s p90 %.6g ms (%s)", prefix, p90*r.scale, note))
	}
	return nil
}

func (r *report) correct() bool { return r.failed == 0 }

func (r *report) fold(res *replayResult) {
	r.attempted += res.attempted
	r.failed += res.failed
	r.violations = append(r.violations, res.violations...)
}

// write prints the human-readable report, then the JSON result line.
func (r *report) write(out io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]value)}

	var b strings.Builder
	fmt.Fprintln(&b, r.header)
	for _, n := range r.notes {
		fmt.Fprintln(&b, "  "+n)
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(&b, "  %-40s %14.6g %-12s %s\n", m.name, m.value, m.unit, m.note)
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	fmt.Fprintf(&b, "  attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, v := range r.violations {
		fmt.Fprintln(&b, "  VIOLATION: "+v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(out, b.String())
	return err
}

// options are how a run measures its workload.
type options struct {
	seconds         time.Duration // replay at least this long
	traced          bool
	sockDir, outDir string
	// setups is how many times a timed run deploys the daemon at least:
	// set-up time is their median. One deployment takes a few milliseconds,
	// so it takes many to steady the median.
	setups int
	// kernels is how many times a timed run times the reference kernel at
	// least, and how many times a traced run times it before its replay and
	// again after.
	kernels int
}

func run(w workload, seed uint64, o options) (*report, error) {
	st, err := w.generate(seed, streamJoins)
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", w.name, err)
	}
	trace := 0
	if o.traced {
		trace = 1
	}
	rep := &report{header: fmt.Sprintf("bench: workload=%s seed=%d trace=%d seconds=%g", w.name, seed, trace, o.seconds.Seconds()), scale: 1}
	if o.traced {
		return rep, runTraced(rep, w, seed, st, o)
	}
	return rep, runTimed(rep, w, st, o)
}

// withDaemon deploys w's daemon, runs fn against it and tears it down,
// returning the deployment's set-up time.
func withDaemon(w workload, sockDir string, fn func(*daemon, *admin.Client) error) (time.Duration, error) {
	runtime.GC() // every deployment starts from the same heap state
	d, c, setup, err := startDaemon(w, sockDir)
	if err != nil {
		return 0, fmt.Errorf("%s: start daemon: %w", w.name, err)
	}
	err = fn(d, c)
	c.Close()
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	return setup, err
}

// runTimed replays the stream on a deployed daemon and reports the
// end-to-end metrics. The reference kernel and the set-up time are sampled
// in the replay's interludes, two kernel runs and one more deployment each,
// so that both see the machine as the replay does; a run too short for
// o.kernels and o.setups samples tops them up after the replay.
func runTimed(rep *report, w workload, st *stream, o options) error {
	var kernel, setups []float64
	deploy := func(fn func(*daemon, *admin.Client) error) error {
		setup, err := withDaemon(w, o.sockDir, fn)
		setups = append(setups, setup.Seconds())
		return err
	}
	idle := func(*daemon, *admin.Client) error { return nil }
	interlude := func() error {
		kernel = append(kernel, timeKernel(2)...)
		return deploy(idle)
	}
	var res *replayResult
	if err := deploy(func(d *daemon, c *admin.Client) (err error) {
		res, err = replay(w, st, d, c, o.seconds, w.prefix, nil, interlude)
		return err
	}); err != nil {
		return err
	}
	for len(setups) < o.setups {
		if err := deploy(idle); err != nil {
			return err
		}
	}
	if n := o.kernels - len(kernel); n > 0 {
		kernel = append(kernel, timeKernel(n)...)
	}
	rep.calibrate(kernel)
	rep.fold(res)
	rep.notes = append(rep.notes, fmt.Sprintf("replayed %v: %d fresh allocations, %d joins, %d leaves, %d reads",
		res.elapsed.Round(time.Millisecond), res.allocs, len(res.join), len(res.leave), len(res.read)))

	setup, _ := nearestRank(setups, 0.5)
	rep.addTime("setup_s", "s", setup, fmt.Sprintf("median of %d deployments", len(setups)))
	rep.add("allocs_per_s", "1/s", float64(res.allocs)/res.elapsed.Seconds()/rep.scale, "")
	// The tails of joins and leaves, sub-millisecond RPCs that wait on
	// whatever else holds the two CPUs, moved up to 30% between runs of the
	// same inputs, so they are printed but carry no bound.
	for _, p := range []struct {
		name    string
		samples []float64
		tail    bool
	}{{"alloc", res.alloc, true}, {"join", res.join, false}, {"leave", res.leave, false}, {"read", res.read, true}} {
		if err := rep.addPercentiles(p.name, p.samples, p.tail); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	quality := fmt.Sprintf("mean over the first %d allocations", w.prefix)
	rep.add("fair_share", "rate/demand", res.fairSum/float64(w.prefix), quality)
	rep.add("alloc_throughput", "rate", res.throughputSum/float64(w.prefix), quality)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.add("peak_rss_mb", "MB", rss, "VmHWM")
	return nil
}

// runTraced replays the start of the stream untraced, then replays it again
// with spans and a CPU profile for the rest of the run, and reports the
// per-layer metrics from the traced replay.
func runTraced(rep *report, w workload, seed uint64, st *stream, o options) error {
	begin := time.Now()
	kernel := timeKernel(o.kernels)
	k := min(overheadAllocs, w.prefix)
	var base *replayResult
	if _, err := withDaemon(w, o.sockDir, func(d *daemon, c *admin.Client) (err error) {
		base, err = replay(w, st, d, c, 0, k, nil, nil)
		return err
	}); err != nil {
		return err
	}
	rep.fold(base)

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	f, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return err
	}
	defer f.Close()
	rec := newRecorder()
	var res *replayResult
	var mem0, mem1 runtime.MemStats
	var wall, cpu time.Duration
	_, err = withDaemon(w, o.sockDir, func(d *daemon, c *admin.Client) error {
		runtime.ReadMemStats(&mem0)
		cpu0, err := cpuTime()
		if err != nil {
			return err
		}
		start := time.Now()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		res, err = replay(w, st, d, c, max(o.seconds-time.Since(begin), 0), w.prefix, rec, nil)
		pprof.StopCPUProfile()
		wall = time.Since(start)
		runtime.ReadMemStats(&mem1)
		cpu1, cpuErr := cpuTime()
		cpu = cpu1 - cpu0
		return errors.Join(err, cpuErr)
	})
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		return err
	}
	rep.calibrate(append(kernel, timeKernel(o.kernels)...))
	rep.fold(res)
	if err := writeSpans(stem+".spans.jsonl", rec.finish()); err != nil {
		return err
	}
	prof, err := readProfile(stem + ".cpu.pprof")
	if err != nil {
		return err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("traced replay %v: %d fresh allocations, %d requests, %v CPU sampled; spans and profile in %s.*",
		res.elapsed.Round(time.Millisecond), res.allocs, res.attempted, prof.total, stem))

	allocs := float64(res.allocs)
	for _, l := range layers {
		rep.addTime(l.name+".cpu_ms_per_alloc", "ms/alloc", ms(prof.layer[l.name])/allocs, "")
		rep.add(l.name+".cpu_share", "share", share(prof.layer[l.name], prof.total), "")
	}
	rep.add(otherLayer+".cpu_share", "share", share(prof.layer[otherLayer], prof.total), "")
	for _, e := range entryPoints {
		per, unit := allocs, "ms/alloc"
		if strings.HasSuffix(e.metric, "_per_op") {
			per, unit = float64(res.attempted), "ms/op"
		}
		note := "CPU, cumulative"
		if _, ok := prof.entry[e.metric]; !ok {
			note = "absent: never sampled"
		}
		rep.addTime(e.metric, unit, ms(prof.entry[e.metric])/per, note)
	}
	rep.addTime("core.warm_repair_ms_per_alloc", "ms/alloc", res.warmMs/allocs, "wall time of refreshes served by warm repair")
	rep.addTime("core.cold_ms_per_alloc", "ms/alloc", res.coldMs/allocs, "wall time of refreshes served by a cold solve")

	// Work counters over the quality prefix: they repeat exactly for a seed.
	if res.stats == nil {
		return fmt.Errorf("%s: no counters read at the quality prefix", w.name)
	}
	a, n := res.stats.Allocator, float64(w.prefix)
	counted := fmt.Sprintf("over the first %d allocations", w.prefix)
	rep.add("core.warm_frac", "ratio", ratio(a.WarmRefreshes, a.WarmRefreshes+a.ColdSolves), counted)
	rep.add("core.warm_fallbacks", "count", float64(a.WarmFallbacks), counted)
	rep.add("core.repair_phases_per_alloc", "count/alloc", float64(a.RepairPhases)/n, counted)
	rep.add("core.mst_ops_per_alloc", "count/alloc", float64(a.MSTOps)/n, counted)
	rep.add("overlay.plane_sources_per_alloc", "count/alloc", float64(a.Plane.Sources)/n, counted)
	rep.add("overlay.dedup", "ratio", a.Plane.Dedup(), counted)
	rep.add("overlay.hit_rate", "ratio", a.Plane.HitRate(), counted)
	rep.add("overlay.repair_rate", "ratio", a.Plane.RepairRate(), counted)
	rep.add("overlay.subtree_repairs_per_alloc", "count/alloc", float64(a.Plane.SubtreeRepaired)/n, counted)
	rep.add("overlay.subtree_nodes_per_repair", "nodes/repair", ratio(a.Plane.SubtreeNodes, a.Plane.SubtreeRepaired), counted)
	rep.add("overlay.nonmonotone_refills_per_alloc", "count/alloc", float64(a.Plane.NonMonotoneRefills)/n, counted)
	rep.add("overlay.tree_hits_per_alloc", "count/alloc", float64(a.Plane.TreeHits)/n, counted)
	rep.add("underlay.events", "count", float64(a.UnderlayEvents), counted)
	rep.add("admin.snapshot_bytes", "bytes", float64(res.snapshotBytes)/n, "mean encoded refresh result, "+counted)

	rep.add("runtime.alloc_mb_per_alloc", "MB/alloc", float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20)/allocs, "")
	rep.add("runtime.gc_cycles_per_alloc", "gc/alloc", float64(mem1.NumGC-mem0.NumGC)/allocs, "")
	rep.add("bench.cpu_util", "share", cpu.Seconds()/(wall.Seconds()*float64(runtime.NumCPU())), "process CPU over wall x nproc")
	late := 0.0
	if len(res.late) > 0 {
		late, _ = nearestRank(res.late, 0.9)
	}
	rep.addTime("bench.reader_late_p90_ms", "ms", late, fmt.Sprintf("n=%d", len(res.late)))
	rep.add("bench.ref_kernel_ms", "ms", rep.kernelMs, "measured, unscaled")
	rep.add("bench.trace_overhead_frac", "frac", res.doneAt[k-1].Seconds()/base.doneAt[k-1].Seconds()-1,
		fmt.Sprintf("traced vs untraced time to the first %d allocations", k))
	rep.notes = append(rep.notes, w.checkClaims(rep.metrics)...)
	return nil
}

func share(part, total time.Duration) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
