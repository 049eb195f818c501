package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"overcast"
	"overcast/internal/admin"
)

// daemon is an in-process overcastd: the allocator and admin server built
// exactly as cmd/overcastd builds them, serving on a unix socket.
type daemon struct {
	alloc  *overcast.Allocator
	srv    *admin.Server
	dir    string
	sock   string
	served chan error
}

// startDaemon deploys w's daemon under sockDir and returns it with a client
// whose first ping succeeded, plus the set-up time: network build to that
// ping.
func startDaemon(w workload, sockDir string) (*daemon, *admin.Client, time.Duration, error) {
	if err := os.MkdirAll(sockDir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	// Socket paths are length-limited, so the directory stays relative.
	dir, err := os.MkdirTemp(sockDir, "d")
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	net, err := overcast.WaxmanNetwork(w.nodes, 100, topologySeed)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, 0, err
	}
	alloc, err := overcast.NewAllocator(net, overcast.AllocatorOptions{
		Mu: 30, Epsilon: w.epsilon, Routing: w.routing, RepairPhaseBudget: w.budget,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, 0, err
	}
	d := &daemon{alloc: alloc, dir: dir, sock: filepath.Join(dir, "admin.sock"), served: make(chan error, 1)}
	if d.srv, err = admin.NewServer(alloc, admin.Options{SocketPath: d.sock}); err != nil {
		d.release()
		return nil, nil, 0, err
	}
	if err := d.srv.Listen(); err != nil {
		d.release()
		return nil, nil, 0, err
	}
	go func() { d.served <- d.srv.Serve() }()
	c, err := admin.Dial(d.sock, 2*time.Second)
	if err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	if _, err := c.Ping(); err != nil {
		c.Close()
		d.stop()
		return nil, nil, 0, err
	}
	return d, c, time.Since(start), nil
}

// stop drains the server, waits for Serve to return and releases the
// allocator. Clients must be closed first, or the drain waits out its
// timeout.
func (d *daemon) stop() error {
	d.srv.Drain()
	err := <-d.served
	d.release()
	if err != nil {
		return fmt.Errorf("daemon serve: %w", err)
	}
	return nil
}

func (d *daemon) release() {
	d.alloc.Close()
	os.RemoveAll(d.dir)
}
