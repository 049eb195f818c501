package main

import (
	"container/heap"
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The machine the benchmark runs on is shared, and its speed drifts: on the
// 2-vCPU VM it was calibrated on, a fixed replay ran up to 30% slower for
// minutes at a time, and its speed moved by ±12% within a minute. Every run
// therefore times a reference kernel, a fixed piece of standard-library work
// that exercises what the daemon does (priority-queue shortest paths, JSON
// round trips of a snapshot-shaped document, allocation, a sort) without
// calling any of its code (a timed run throughout its replay), and reports
// its times scaled to the speed the machine had at calibration.

// nominalKernel is timeKernel's median on that VM (Intel Xeon, 2 vCPUs,
// Go 1.24) during calibration.
const nominalKernel = 75 * time.Millisecond

type refEdge struct {
	to int
	w  float64
}

type refItem struct {
	node int
	dist float64
}

type refQueue []refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

type refTree struct {
	Pairs [][2]int `json:"pairs"`
	Rate  float64  `json:"rate"`
}

type refSession struct {
	Session uint64    `json:"session"`
	Rate    float64   `json:"rate"`
	Members []int     `json:"members"`
	Trees   []refTree `json:"trees"`
}

// referenceKernel runs the fixed work once.
func referenceKernel() {
	r := rand.New(rand.NewSource(1))

	const n = 3000
	adj := make([][]refEdge, n)
	for v := range adj {
		for range 4 {
			u, w := r.Intn(n), r.Float64()
			adj[v] = append(adj[v], refEdge{u, w})
			adj[u] = append(adj[u], refEdge{v, w})
		}
	}
	dist := make([]float64, n)
	for src := range 10 {
		for i := range dist {
			dist[i] = 1e300
		}
		dist[src] = 0
		q := &refQueue{{src, 0}}
		for q.Len() > 0 {
			it := heap.Pop(q).(refItem)
			if it.dist > dist[it.node] {
				continue
			}
			for _, e := range adj[it.node] {
				if d := it.dist + e.w; d < dist[e.to] {
					dist[e.to] = d
					heap.Push(q, refItem{e.to, d})
				}
			}
		}
	}

	doc := make([]refSession, 24)
	for i := range doc {
		doc[i] = refSession{Session: uint64(i + 1), Rate: r.Float64(), Members: []int{1, 2, 3, 4, 5}}
		for range 20 {
			doc[i].Trees = append(doc[i].Trees, refTree{Pairs: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, Rate: r.Float64()})
		}
	}
	for range 10 {
		raw, err := json.Marshal(doc)
		if err != nil {
			panic(err) // a fixed document of plain types always encodes
		}
		var back []refSession
		if err := json.Unmarshal(raw, &back); err != nil {
			panic(err)
		}
	}

	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	sort.Float64s(xs)
}

// timeKernel times the kernel n times and returns each time (ms). Each time
// is the wall time of one copy of the kernel per CPU, run concurrently: the
// daemon keeps every CPU busy, and a neighbour that takes one of them slows
// it more than it slows a single thread.
func timeKernel(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		runtime.GC()
		start := time.Now()
		var wg sync.WaitGroup
		for range runtime.GOMAXPROCS(0) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				referenceKernel()
			}()
		}
		wg.Wait()
		out[i] = ms(time.Since(start))
	}
	return out
}
