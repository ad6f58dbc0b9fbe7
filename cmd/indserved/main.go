// Command indserved serves discovered inclusion dependencies — and the
// value sets and sketches behind them — over HTTP, without re-running
// discovery:
//
//	indfind -csv ./data -algo spider-merge -sketch -workdir ./run -out ./run/INDS.json
//	indserved -addr 127.0.0.1:8080 -dataset mydata=./run
//
// Each -dataset names a directory of exported block value files (a text
// export converts with valconvert -format block -dir) holding the
// result set the batch run wrote (INDS.json by default; override per dataset with -inds). The
// daemon copies every value set into memory once at startup and
// answers:
//
//	GET  /healthz        liveness + current generation
//	GET  /metrics        per-endpoint counters, cache and in-memory dataset stats
//	GET  /v1/datasets    loaded datasets
//	GET  /v1/attrs       one dataset's attribute catalog
//	GET  /v1/member      value-membership probe (bloom first, then cursor)
//	GET  /v1/containment sketch containment estimate for any attribute pair
//	GET  /v1/inds        lookup/filter over the discovered INDs
//	GET/POST /v1/verify  on-demand re-verification through a merge engine
//	POST /v1/reload      atomic snapshot swap (also on SIGHUP)
//
// Reload re-reads every configured dataset from disk into a fresh
// generation and swaps one pointer; requests in flight finish on the
// generation they started on. SIGTERM/SIGINT drain in-flight requests
// before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spider/internal/serve"
)

// datasetFlags collects repeatable -dataset and -inds flags.
type datasetFlags struct {
	specs []serve.DatasetSpec
}

func (d *datasetFlags) String() string {
	names := make([]string, 0, len(d.specs))
	for _, sp := range d.specs {
		names = append(names, sp.Name)
	}
	return strings.Join(names, ",")
}

// Set accepts "name=dir" or a bare directory (named by its base name).
func (d *datasetFlags) Set(v string) error {
	name, dir, ok := strings.Cut(v, "=")
	if !ok {
		d.specs = append(d.specs, serve.DatasetSpec{Dir: v})
		return nil
	}
	if name == "" || dir == "" {
		return fmt.Errorf("want name=dir, got %q", v)
	}
	d.specs = append(d.specs, serve.DatasetSpec{Name: name, Dir: dir})
	return nil
}

// indsFlags collects per-dataset result-set overrides ("name=path").
type indsFlags struct {
	paths map[string]string
}

func (f *indsFlags) String() string { return "" }

func (f *indsFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	if f.paths == nil {
		f.paths = map[string]string{}
	}
	f.paths[name] = path
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	var datasets datasetFlags
	flag.Var(&datasets, "dataset", "dataset to serve, as name=dir or a bare dir (repeatable)")
	var inds indsFlags
	flag.Var(&inds, "inds", "result-set path override, as name=path (repeatable; default DIR/INDS.json)")
	cacheSize := flag.Int("cache", serve.DefaultCacheSize, "response cache entries per generation (negative disables)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second, "grace period for in-flight requests on SIGTERM/SIGINT")
	flag.Parse()

	if len(datasets.specs) == 0 {
		fmt.Fprintln(os.Stderr, "indserved: no datasets (use -dataset name=dir; run indfind with -out first)")
		os.Exit(2)
	}
	for i := range datasets.specs {
		sp := &datasets.specs[i]
		if path, ok := inds.paths[sp.Name]; ok {
			sp.Results = path
		}
	}
	for name := range inds.paths {
		found := false
		for _, sp := range datasets.specs {
			if sp.Name == name {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "indserved: -inds %s=... names no -dataset\n", name)
			os.Exit(2)
		}
	}

	srv, err := serve.New(serve.Config{Specs: datasets.specs, CacheSize: *cacheSize})
	if err != nil {
		fmt.Fprintf(os.Stderr, "indserved: %v\n", err)
		os.Exit(1)
	}
	st := srv.State()
	fmt.Fprintf(os.Stderr, "indserved: loaded %d dataset(s): %s\n",
		len(st.Names()), strings.Join(st.Names(), ", "))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "indserved: %v\n", err)
		os.Exit(1)
	}
	// The parseable line smoke tests and scripts wait for.
	fmt.Printf("indserved: listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case err := <-serveErr:
			// The listener died outside a requested shutdown.
			fmt.Fprintf(os.Stderr, "indserved: %v\n", err)
			os.Exit(1)
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				next, err := srv.Reload()
				if err != nil {
					// The old generation keeps serving; reload failure is
					// an operator problem, not an outage.
					fmt.Fprintf(os.Stderr, "indserved: %v\n", err)
					continue
				}
				fmt.Fprintf(os.Stderr, "indserved: reloaded, now serving generation %d\n", next.Generation)
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
			err := srv.Shutdown(ctx)
			cancel()
			if err != nil {
				fmt.Fprintf(os.Stderr, "indserved: shutdown: %v\n", err)
				os.Exit(1)
			}
			<-serveErr // always http.ErrServerClosed after a clean Shutdown
			fmt.Println("indserved: shutdown complete")
			return
		}
	}
}
