// Command gomd is the object-base server: it serves one database to
// many clients over the length-prefixed binary protocol of
// internal/server/wire (spec: docs/SERVICE.md), with admission control,
// graceful drain on SIGTERM/SIGINT, structured logs (-log-level,
// -log-format), a slow-query log (-slow-query), and an admin HTTP
// endpoint for Prometheus metrics, health checks, request traces, and
// live profiling.
//
// Exactly one database mode must be chosen:
//
//	gomd -demo                 generated demo database (see -scale, -seed)
//	gomd -load FILE.gom        binary snapshot (gomshell `save` / \save)
//	gomd -db BASE              durable base saved with gomshell \save:
//	                           BASE.{gom,pages,pages.wal,manifest};
//	                           crash-recovered on start, checkpointed on
//	                           drain and every -checkpoint interval
//
// Operational details — wire protocol, error codes, drain semantics,
// the runbook — are in docs/SERVICE.md; metrics in docs/OBSERVABILITY.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"asr/internal/fault"
	"asr/internal/server"
	"asr/internal/storage"
)

// stringsFlag collects a repeatable -index flag.
type stringsFlag []string

func (f *stringsFlag) String() string     { return strings.Join(*f, ",") }
func (f *stringsFlag) Set(s string) error { *f = append(*f, s); return nil }

type options struct {
	addr           string
	admin          string
	demo           bool
	scale          int
	seed           int64
	load           string
	db             string
	indexes        stringsFlag
	maxInflight    int
	checkpoint     time.Duration
	drainTimeout   time.Duration
	requestTimeout time.Duration
	idleTimeout    time.Duration
	name           string
	chaosDisk      float64
	chaosSeed      int64
	logLevel       string
	logFormat      string
	slowQuery      time.Duration
	archiveDir     string
	scrubInterval  time.Duration
}

func parseFlags(args []string, errw io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("gomd", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7424", "query listener address")
	fs.StringVar(&o.admin, "admin", "127.0.0.1:7425", "admin HTTP address for /metrics, /healthz, /readyz, /traces, /slowlog, /debug/pprof (empty disables)")
	fs.BoolVar(&o.demo, "demo", false, "serve a generated demo database")
	fs.IntVar(&o.scale, "scale", 4, "demo database scale factor (with -demo)")
	fs.Int64Var(&o.seed, "seed", 42, "demo database generation seed (with -demo)")
	fs.StringVar(&o.load, "load", "", "serve a binary object-base snapshot FILE.gom (build indexes with -index)")
	fs.StringVar(&o.db, "db", "", "serve a durable base saved with gomshell \\save (BASE.{gom,pages,pages.wal,manifest})")
	fs.Var(&o.indexes, "index", "index spec EXT:DEC:TYPE.A.B (can|full|left|right : binary|none), repeatable; with -load")
	fs.IntVar(&o.maxInflight, "max-inflight", 0, "max concurrently executing queries before shedding with OVERLOADED (0 = 2×GOMAXPROCS)")
	fs.DurationVar(&o.checkpoint, "checkpoint", 5*time.Minute, "periodic checkpoint cadence for durable bases (0 = only on drain)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "max time to wait for in-flight queries on shutdown before canceling them")
	fs.DurationVar(&o.requestTimeout, "request-timeout", 0, "per-query server-side deadline; queries over it answer DEADLINE_EXCEEDED (0 disables)")
	fs.DurationVar(&o.idleTimeout, "idle-timeout", 0, "reap sessions idle this long with nothing in flight (0 disables)")
	fs.StringVar(&o.name, "name", "gomd", "server name reported in handshakes and stats")
	fs.Float64Var(&o.chaosDisk, "chaos-disk", 0, "inject transient page-read faults with this probability, 0..1 (resilience testing; with -demo or -load)")
	fs.Int64Var(&o.chaosSeed, "chaos-seed", 1, "seed for the -chaos-disk fault schedule")
	fs.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn, error")
	fs.StringVar(&o.logFormat, "log-format", "text", "log output format: text, json")
	fs.DurationVar(&o.slowQuery, "slow-query", time.Second, "record queries slower than this in the slow-query log (admin /slowlog; 0 disables)")
	fs.StringVar(&o.archiveDir, "archive-dir", "", "archive sealed WAL segments into this directory (with -db); required for POST /backup restores to arbitrary LSNs")
	fs.DurationVar(&o.scrubInterval, "scrub-interval", 5*time.Minute, "background integrity scrub cadence for durable bases (with -db; 0 disables)")
	fs.Usage = func() {
		fmt.Fprintf(errw, `gomd — object-base server (Access Support Relations engine)

usage: gomd (-demo | -load FILE.gom | -db BASE) [flags]

`)
		fs.PrintDefaults()
		fmt.Fprintf(errw, `
The admin endpoint (-admin) serves /metrics (Prometheus), /healthz,
/readyz, /traces (recent request spans), /slowlog (queries over
-slow-query), POST /backup?dest=DIR (online backup of a -db base), and
/debug/pprof (live profiling).

Durable bases (-db) also run a background integrity scrubber
(-scrub-interval) that heals corrupt pages from the WAL and its
archive (-archive-dir) and degrades /healthz when it cannot.

Stop with SIGTERM or SIGINT: gomd stops accepting work, answers every
admitted query, checkpoints durable state, then exits.

docs: docs/SERVICE.md (protocol + runbook), docs/ARCHITECTURE.md,
      docs/OBSERVABILITY.md (metrics), docs/ROBUSTNESS.md (recovery)
`)
	}
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	modes := 0
	for _, on := range []bool{o.demo, o.load != "", o.db != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fs.Usage()
		return o, errors.New("gomd: choose exactly one of -demo, -load, -db")
	}
	if len(o.indexes) > 0 && o.load == "" {
		return o, errors.New("gomd: -index only applies to -load (durable bases carry a manifest; -demo builds its own)")
	}
	if o.chaosDisk < 0 || o.chaosDisk > 1 {
		return o, errors.New("gomd: -chaos-disk must be a probability in [0, 1]")
	}
	if o.db == "" {
		explicit := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if explicit["archive-dir"] {
			return o, errors.New("gomd: -archive-dir only applies to -db (nothing to archive without a WAL)")
		}
		if explicit["scrub-interval"] {
			return o, errors.New("gomd: -scrub-interval only applies to -db (nothing to scrub without a page file)")
		}
	}
	if o.chaosDisk > 0 && o.db != "" {
		return o, errors.New("gomd: -chaos-disk applies to -demo and -load only (a durable base's recovery path must stay honest)")
	}
	switch o.logLevel {
	case "debug", "info", "warn", "error":
	default:
		return o, fmt.Errorf("gomd: -log-level %q is not one of debug, info, warn, error", o.logLevel)
	}
	switch o.logFormat {
	case "text", "json":
	default:
		return o, fmt.Errorf("gomd: -log-format %q is not one of text, json", o.logFormat)
	}
	return o, nil
}

// buildLogger constructs the process logger from -log-level and
// -log-format. Everything gomd and the embedded server print goes
// through it, so `gomd -log-format json | jq` works end to end.
func buildLogger(o options, out io.Writer) *slog.Logger {
	var level slog.Level
	switch o.logLevel {
	case "debug":
		level = slog.LevelDebug
	case "warn":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		level = slog.LevelInfo
	}
	hopts := &slog.HandlerOptions{Level: level}
	if o.logFormat == "json" {
		return slog.New(slog.NewJSONHandler(out, hopts))
	}
	return slog.New(slog.NewTextHandler(out, hopts))
}

func main() {
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := run(opts, os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// chaosPoolFrames bounds the buffer pool in -chaos-disk mode. An
// unbounded pool would absorb the whole index into cache and the
// injector would never see a read; a small pool keeps queries hitting
// the (faulty) device.
const chaosPoolFrames = 32

// chaosPool builds a fault-injected device + bounded pool for
// -chaos-disk. Faults stay disabled (p=0) while the database and its
// indexes are built — construction is clean; armChaos starts the
// faults once the database is open.
func chaosPool(seed int64) (*storage.FaultInjector, *storage.BufferPool) {
	inj := storage.NewFaultInjector(storage.NewDisk(0), fault.New(seed))
	return inj, storage.NewBufferPool(inj, chaosPoolFrames, storage.LRU)
}

// armChaos flushes and empties the pool cache — after a clean build the
// whole index is resident, and a warm cache never reads — then starts
// injecting read faults.
func armChaos(inj *storage.FaultInjector, pool *storage.BufferPool, p float64) error {
	if err := pool.FlushAll(); err != nil {
		return err
	}
	if err := pool.DropClean(); err != nil {
		return err
	}
	inj.FailProbabilistically(p, 0)
	return nil
}

// openDatabase builds the Database for the selected mode and returns a
// line describing it for the startup log, plus the armed-later fault
// injector when -chaos-disk is on.
func openDatabase(opts options) (*server.Database, string, *storage.FaultInjector, error) {
	var inj *storage.FaultInjector
	var pool *storage.BufferPool
	if opts.chaosDisk > 0 {
		inj, pool = chaosPool(opts.chaosSeed)
	}
	switch {
	case opts.demo:
		d, err := server.DemoDatabaseWith(opts.scale, opts.seed, pool)
		if err != nil {
			return nil, "", nil, err
		}
		if inj != nil {
			if err := armChaos(inj, pool, opts.chaosDisk); err != nil {
				return nil, "", nil, err
			}
		}
		return d, fmt.Sprintf("demo database (scale %d, seed %d): %d objects, collection var All, indexed path T0.Next.Next.Next.Payload",
			opts.scale, opts.seed, d.Base.Count()), inj, nil
	case opts.load != "":
		d, err := server.LoadDumpFile(opts.load, opts.indexes, pool)
		if err != nil {
			return nil, "", nil, err
		}
		if inj != nil {
			if err := armChaos(inj, pool, opts.chaosDisk); err != nil {
				return nil, "", nil, err
			}
		}
		return d, fmt.Sprintf("loaded %s: %d objects, %d indexes", opts.load, d.Base.Count(), len(d.Manager.Indexes())), inj, nil
	default:
		d, info, err := server.OpenDurableBase(opts.db, opts.archiveDir)
		if err != nil {
			return nil, "", nil, err
		}
		desc := fmt.Sprintf("opened %s: %d objects, %d indexes (%s)",
			opts.db, d.Base.Count(), len(d.Manager.Indexes()), info)
		if opts.archiveDir != "" {
			desc += fmt.Sprintf("; archiving WAL segments to %s", opts.archiveDir)
		}
		return d, desc, nil, nil
	}
}

// run opens the database, serves it until SIGTERM/SIGINT, then drains.
// onReady, if non-nil, is called with the started server (tests use it
// to learn the ephemeral addresses).
func run(opts options, out io.Writer, onReady func(*server.Server)) error {
	logger := buildLogger(opts, out)

	d, desc, inj, err := openDatabase(opts)
	if err != nil {
		return err
	}
	logger.Info("gomd: " + desc)
	if inj != nil {
		// The database and its indexes were built on a clean device; the
		// injector was armed only after (armChaos), so every fault surfaces
		// at query time as a typed INTERNAL response — never a corrupt build.
		logger.Warn("gomd: CHAOS: injecting page-read faults — responses may be INTERNAL",
			"p", opts.chaosDisk, "seed", opts.chaosSeed)
	}

	// Durable bases get the full robustness plane: a background integrity
	// scrubber whose unhealed findings degrade /healthz, and online
	// backup over the admin endpoint (docs/ROBUSTNESS.md).
	var scrubber *storage.Scrubber
	cfg := server.Config{
		Addr:               opts.addr,
		AdminAddr:          opts.admin,
		MaxInflight:        opts.maxInflight,
		RequestTimeout:     opts.requestTimeout,
		IdleTimeout:        opts.idleTimeout,
		Name:               opts.name,
		Logger:             logger,
		SlowQueryThreshold: opts.slowQuery,
		OnDrain: func() error {
			logger.Info("gomd: checkpointing on drain")
			return d.Checkpoint()
		},
	}
	if d.Durable() {
		cfg.OnBackup = func(dest string) (any, error) { return d.Backup(dest) }
		if opts.scrubInterval > 0 {
			scrubber = storage.NewScrubber(d.Disk(), d.WAL(), storage.ScrubConfig{
				Interval:       opts.scrubInterval,
				PagesPerSecond: 256,
				OnCorrupt: func(id storage.PageID, healed bool) {
					if healed {
						logger.Warn("gomd: scrub healed a corrupt page from the log", "page", id)
					} else {
						logger.Error("gomd: scrub found an unhealable corrupt page — Repair or restore from backup", "page", id)
					}
				},
			})
			cfg.HealthCheck = func() error {
				if n := len(scrubber.Unhealed()); n > 0 {
					return fmt.Errorf("scrub: %d unhealed corrupt pages", n)
				}
				return nil
			}
			scrubber.Start()
			logger.Info("gomd: integrity scrubber running", "interval", opts.scrubInterval)
		}
	}

	// Catch the stop signals before anyone can learn the server is up: one
	// delivered between "ready" and a later Notify would kill the process
	// undrained.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)

	s := server.New(d.Engine, d.Manager, cfg)
	if err := s.Start(); err != nil {
		if scrubber != nil {
			scrubber.Stop()
		}
		d.Close()
		return err
	}
	if onReady != nil {
		onReady(s)
	}

	// Periodic checkpoints bound recovery replay time (durable bases;
	// a no-op for -demo and -load). See the runbook in docs/SERVICE.md.
	stopCheckpoints := make(chan struct{})
	checkpointsDone := make(chan struct{})
	go func() {
		defer close(checkpointsDone)
		if opts.checkpoint <= 0 {
			return
		}
		t := time.NewTicker(opts.checkpoint)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := d.Checkpoint(); err != nil {
					logger.Error("gomd: periodic checkpoint failed", "err", err)
				}
			case <-stopCheckpoints:
				return
			}
		}
	}()

	sig := <-sigc
	logger.Info(fmt.Sprintf("gomd: received %s, draining", sig))

	ctx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancel()
	drainErr := s.Shutdown(ctx)
	close(stopCheckpoints)
	<-checkpointsDone
	if scrubber != nil {
		scrubber.Stop()
	}
	closeErr := d.Close()
	if drainErr == nil && closeErr == nil {
		logger.Info("gomd: clean shutdown")
	}
	return errors.Join(drainErr, closeErr)
}
