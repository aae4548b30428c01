// Command viewsrv serves constant-complement views over HTTP: one
// self-healing serve pipeline per named view, fronted by the
// internal/netserve protocol (JSON reads, listings and health; submits
// as binary op frames only; per-tenant admission control;
// degraded-read headers).
//
// Usage:
//
//	viewsrv -journal dir [-addr 127.0.0.1:8085] [-portfile p] [-views ed,dm]
//	        [-emp 64] [-dept 8] [-failsync n] [-max-batch 32] [-shed]
//	        [-slots 16] [-rate 0] [-burst 0] [-tenants "hog=1,good=4"]
//	        [-conn-budget 0] [-max-tenants 64]
//
// The schema is the paper's Employee–Department–Manager fixture
// (U = {E, D, M}, Σ = {E → D, D → M}); view "ed" is X = ED with
// constant complement Y = DM, view "dm" is the symmetric pair. Each
// view journals under <journal>/<name> via store.Open, so restarting
// against the same directory recovers every acknowledged update, and
// the pipelines resurrect themselves from those directories when a
// storage fault breaks a session mid-run.
//
// -failsync n injects one fsync failure at the nth journal sync of the
// first view — the smoke test's resurrection trigger: the pipeline
// quarantines the broken session, re-runs recovery against the same
// directory, and resumes without losing an acknowledged op.
//
// -portfile writes the bound address (host:port) after listen, so
// scripts using -addr with port 0 can find the server. /metricz (JSON)
// and /metricz.prom expose every subsystem's counters and latency
// histograms; SIGINT/SIGTERM drain the pipelines before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/constcomp/constcomp/internal/core"
	"github.com/constcomp/constcomp/internal/netserve"
	"github.com/constcomp/constcomp/internal/obs"
	"github.com/constcomp/constcomp/internal/relation"
	"github.com/constcomp/constcomp/internal/serve"
	"github.com/constcomp/constcomp/internal/store"
	"github.com/constcomp/constcomp/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("viewsrv: ")
	addr := flag.String("addr", "127.0.0.1:8085", "listen address (port 0 picks a free port; see -portfile)")
	portFile := flag.String("portfile", "", "write the bound host:port here once listening")
	journalDir := flag.String("journal", "", "root directory for per-view journals (required)")
	views := flag.String("views", "ed,dm", "comma-separated views to serve (ed, dm)")
	nEmp := flag.Int("emp", 64, "employees in the initial instance")
	nDept := flag.Int("dept", 8, "departments in the initial instance")
	failSync := flag.Int("failsync", 0, "inject one fsync failure at the nth journal sync of the first view (0 = none)")
	maxBatch := flag.Int("max-batch", 32, "ops per group commit")
	shed := flag.Bool("shed", true, "shed submissions instead of blocking when the queue is full")
	slots := flag.Int("slots", 16, "concurrent admitted submissions")
	rate := flag.Float64("rate", 0, "default per-tenant sustained ops/second (0 = unlimited)")
	burst := flag.Float64("burst", 0, "default per-tenant burst in ops (0 = one second's worth)")
	tenantSpec := flag.String("tenants", "", "per-tenant weights, e.g. \"hog=1,good=4\"")
	connBudget := flag.Int64("conn-budget", 0, "ops one connection may submit before it must re-dial (0 = unlimited)")
	maxTenants := flag.Int("max-tenants", 64, "bound on the tenant admission table")
	flag.Parse()
	if *journalDir == "" {
		flag.Usage()
		os.Exit(2)
	}

	tenants, err := parseTenants(*tenantSpec)
	if err != nil {
		log.Fatal(err)
	}

	// Instrument every layer a request can touch; /metricz serves the
	// registry live.
	reg := obs.NewRegistry()
	relation.SetMetrics(reg)
	core.SetMetrics(reg)
	store.SetMetrics(reg)
	serve.SetMetrics(reg)
	netserve.SetMetrics(reg)

	edm := workload.NewEDM()
	db := edm.Instance(*nEmp, *nDept)

	srv := netserve.NewServer(netserve.Options{
		Admission: netserve.AdmissionOptions{
			Slots:      *slots,
			MaxTenants: *maxTenants,
			Default:    netserve.TenantConfig{Rate: *rate, Burst: *burst},
			Tenants:    tenants,
		},
		ConnOpBudget: *connBudget,
		Registry:     reg,
	})

	addViews(srv, edm, db, *journalDir, *views, *failSync, *maxBatch, *shed)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()+"\n"), 0o666); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("serving on %s", ln.Addr())

	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// Connection-scoped budgets ride on the request context.
		ConnContext: srv.ConnContext,
	}
	// Drain on SIGINT/SIGTERM: stop accepting, let in-flight requests
	// finish (bounded), then close the pipelines so every accepted op
	// is decided and durable before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shCtx)
	})

	err = httpSrv.Serve(ln)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
}

// addViews opens each named view as a self-healing pipeline under
// <journalDir>/<name> and registers it.
func addViews(srv *netserve.Server, edm *workload.EDM, db *relation.Relation,
	journalDir, views string, failSync, maxBatch int, shed bool) {
	for i, name := range strings.Split(views, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		var x, y = edm.ED, edm.DM
		switch name {
		case "ed":
		case "dm":
			x, y = edm.DM, edm.ED
		default:
			log.Fatalf("unknown view %q (want ed or dm)", name)
		}
		pair, err := core.NewPair(edm.Schema, x, y)
		if err != nil {
			log.Fatal(err)
		}
		dir := filepath.Join(journalDir, name)
		if err := os.MkdirAll(dir, 0o777); err != nil {
			log.Fatal(err)
		}
		dirFS, err := store.NewDirFS(dir)
		if err != nil {
			log.Fatal(err)
		}
		// The view's FS: the first view optionally gets the one-shot
		// fsync fault that triggers an online resurrection. It counts
		// journal syncs only: a failed snapshot sync merely degrades the
		// session to journal-only durability and breaks nothing.
		var fsys store.FS = dirFS
		if i == 0 && failSync > 0 {
			fsys = store.NewFaultFS(dirFS, store.FaultPlan{
				Match:      func(fname string) bool { return fname == store.JournalFile },
				FailSyncAt: failSync,
			})
		}
		// Each view gets its own copy of the initial instance: sessions
		// maintain their databases independently (the incremental path
		// patches in place), so they must not alias one relation.
		st, rep, err := store.Open(fsys, pair, db.Clone(), edm.Syms, store.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if rep != nil {
			log.Printf("view %s: %v", name, rep)
		}
		err = srv.AddView(name, st, edm.Syms, serve.Options{
			MaxBatch:   maxBatch,
			ShedOnFull: shed,
			// Self-healing: a broken session is quarantined and a fresh
			// one recovered from the same journal directory, online.
			Resurrect: func() (*store.Session, error) {
				ns, _, err := store.Recover(fsys, pair, edm.Syms, store.Options{})
				return ns, err
			},
		})
		if err != nil {
			log.Fatal(err)
		}
	}
}

// parseTenants parses "name=weight[:rate[:burst]]" pairs.
func parseTenants(spec string) (map[string]netserve.TenantConfig, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]netserve.TenantConfig)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad tenant spec %q (want name=weight[:rate[:burst]])", part)
		}
		var cfg netserve.TenantConfig
		fields := strings.Split(rest, ":")
		vals := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("bad tenant spec %q: %w", part, err)
			}
			vals[i] = v
		}
		switch len(vals) {
		case 3:
			cfg.Burst = vals[2]
			fallthrough
		case 2:
			cfg.Rate = vals[1]
			fallthrough
		case 1:
			cfg.Weight = vals[0]
		default:
			return nil, fmt.Errorf("bad tenant spec %q", part)
		}
		out[name] = cfg
	}
	return out, nil
}
