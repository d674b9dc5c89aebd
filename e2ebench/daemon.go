package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/pkg/api"
	"repro/pkg/client"
	"repro/pkg/service"
	"repro/pkg/service/coordinator"
	"repro/pkg/service/worker"
)

// daemon is an in-process mcmcd on loopback: a standalone service.Manager,
// or a coordinator with in-process workers of one slot each.
type daemon struct {
	url   string
	spool string
	tag   string // prefixes job IDs in spans
	srv   *http.Server
	done  chan error

	mgr   *service.Manager
	coord *coordinator.Coordinator

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup

	// spoolBytes is the spool's size when the daemon closed, after the
	// service stopped writing to it.
	spoolBytes int64
}

func quiet(string, ...any) {}

// startDaemon starts a daemon over a fresh spool directory. Standalone it
// runs slots jobs at once; as a cluster it registers slots workers before
// it returns. A non-nil tracer wraps the handler in the span middleware.
func startDaemon(cluster bool, spool string, slots int, tr *tracer) (*daemon, error) {
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{spool: spool, tag: filepath.Base(spool) + "/", done: make(chan error, 1)}
	cfg := service.Config{Workers: slots, SpoolDir: spool, Logf: quiet}
	var h http.Handler
	if cluster {
		c, err := coordinator.New(coordinator.Config{Service: cfg})
		if err != nil {
			return nil, err
		}
		d.coord, h = c, c.Handler()
	} else {
		m, err := service.NewManager(cfg)
		if err != nil {
			return nil, err
		}
		d.mgr, h = m, m.Handler()
	}
	if tr != nil {
		h = tr.middleware(h, d.tag)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.stopService()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { d.done <- d.srv.Serve(ln) }()
	if cluster {
		if err := d.startWorkers(slots); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// startWorkers runs n one-slot workers and waits until each registered.
func (d *daemon) startWorkers(n int) error {
	ctx, cancel := context.WithCancel(context.Background())
	d.stopWorkers = cancel
	registered := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		w, err := worker.New(worker.Config{
			Coordinator: d.url,
			SpoolDir:    d.spool,
			Slots:       1,
			Name:        fmt.Sprintf("bench-%d", i),
			Logf:        quiet,
			OnRegister:  func(api.WorkerIdentity) { registered <- struct{}{} },
		})
		if err != nil {
			return err
		}
		d.workers.Add(1)
		go func() {
			defer d.workers.Done()
			_ = w.Run(ctx) // Run returns ctx's error once the daemon closes.
		}()
	}
	timeout := time.After(30 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-registered:
		case <-timeout:
			return errors.New("workers did not register within 30s")
		}
	}
	return nil
}

func (d *daemon) stopService() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.coord != nil {
		return d.coord.Stop(ctx)
	}
	return d.mgr.Stop(ctx)
}

// close stops the service, the listener and the workers, waits for all
// of them, and removes the spool. The service goes first: stopping it ends
// the event streams and lease long-polls, so Shutdown only waits for
// requests in flight (a completion still spooling its result). Workers go
// last; cancelled earlier, they could leave a dialed connection without a
// request, which Shutdown waits 5 s for.
func (d *daemon) close() error {
	err := d.stopService()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := d.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if d.stopWorkers != nil {
		d.stopWorkers()
		d.workers.Wait()
	}
	size, serr := dirBytes(d.spool)
	if serr != nil && err == nil {
		err = serr
	}
	d.spoolBytes = size
	if rerr := os.RemoveAll(d.spool); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// dirBytes sums the sizes of every file under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// newClient returns a client for the daemon whose requests carry the
// caller's span as a header, and the transport to release afterwards.
func newClient(url string) (*client.Client, *http.Transport, error) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16
	c, err := client.New(url, client.WithHTTPClient(&http.Client{Transport: spanTransport{base: tr}}))
	return c, tr, err
}
