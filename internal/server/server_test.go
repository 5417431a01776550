package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"asr/internal/paperdb"
	"asr/internal/query"
	"asr/internal/server/client"
	"asr/internal/server/wire"
)

// rawSession dials addr and completes the Hello handshake on a bare
// connection, for tests that speak wire frames directly.
func rawSession(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello, err := wire.Marshal(wire.MsgHello, 1, wire.Hello{Proto: wire.ProtoVersion})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.ReadFrame(conn); err != nil || f.Type != wire.MsgHelloOK {
		t.Fatalf("handshake: frame %v err %v", f.Type, err)
	}
	return conn
}

// startServer boots a server over the given engine and registers
// cleanup. cfg.Addr defaults to an ephemeral loopback port.
func startServer(t *testing.T, engine QueryEngine, d *Database, cfg Config) *Server {
	t.Helper()
	var s *Server
	if d != nil {
		s = New(engine, d.Manager, cfg)
	} else {
		s = New(engine, nil, cfg)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// robotsDatabase builds the paper's Figure 1 fixture with a full/binary
// ASR over the Query 1 path.
func robotsDatabase(t *testing.T) *Database {
	t.Helper()
	r := paperdb.BuildRobots()
	d := NewMemoryDatabase(r.Base, nil)
	if err := d.BuildIndexes([]string{"full:binary:ROBOT.Arm.MountedTool.ManufacturedBy.Location"}); err != nil {
		t.Fatalf("BuildIndexes: %v", err)
	}
	return d
}

// renderInProcess runs sql on the database's engine directly and
// renders the values exactly as the server does — the oracle for
// byte-identical comparisons.
func renderInProcess(t *testing.T, d *Database, sql string) ([]string, string) {
	t.Helper()
	res, err := d.Engine.RunCtx(context.Background(), query.MustParse(sql), 1)
	if err != nil {
		t.Fatalf("in-process %q: %v", sql, err)
	}
	return renderValues(res), res.Plan
}

func TestServerEndToEnd(t *testing.T) {
	d := robotsDatabase(t)
	s := startServer(t, d.Engine, d, Config{AdminAddr: "127.0.0.1:0", Name: "gomd-test"})

	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if c.Server != "gomd-test" || c.Session == 0 {
		t.Fatalf("handshake: server=%q session=%d", c.Server, c.Session)
	}
	ctx := context.Background()

	// Index-routed query answers byte-identically to in-process.
	sql := `select r.Name from r in OurRobots where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"`
	res, err := c.Query(ctx, sql)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	wantVals, wantPlan := renderInProcess(t, d, sql)
	if strings.Join(res.Values, "\n") != strings.Join(wantVals, "\n") {
		t.Fatalf("values: %q vs in-process %q", res.Values, wantVals)
	}
	if res.Plan != wantPlan || !strings.Contains(res.Plan, "via ASR") {
		t.Fatalf("plan: %q vs %q", res.Plan, wantPlan)
	}
	if len(res.Values) != 3 {
		t.Fatalf("want 3 robots, got %v", res.Values)
	}

	// Traversal query (no usable index) also matches.
	sql2 := `select r.Name from r in OurRobots`
	res2, err := c.Query(ctx, sql2)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	w2, p2 := renderInProcess(t, d, sql2)
	if strings.Join(res2.Values, "\n") != strings.Join(w2, "\n") || res2.Plan != p2 {
		t.Fatalf("traversal mismatch: %v / %q", res2.Values, res2.Plan)
	}

	// Typed errors.
	if _, err := c.Query(ctx, `select from where`); !errors.Is(err, client.ErrParse) {
		t.Fatalf("parse error: %v", err)
	}
	if _, err := c.Query(ctx, `select r from r in NoSuchSet`); !errors.Is(err, client.ErrQuery) {
		t.Fatalf("semantic error: %v", err)
	}
	var se *client.ServerError
	if _, err := c.Query(ctx, `select r from r in NoSuchSet`); !errors.As(err, &se) || se.Code != wire.CodeQuery {
		t.Fatalf("ServerError detail: %v", err)
	}

	// Ping and in-band stats, on a second, bare session.
	raw := rawSession(t, s.Addr())
	if err := wire.WriteFrame(raw, wire.Frame{Type: wire.MsgPing, ReqID: 2}); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.ReadFrame(raw); err != nil || f.Type != wire.MsgPong {
		t.Fatalf("ping: frame %v err %v", f.Type, err)
	}
	if err := wire.WriteFrame(raw, wire.Frame{Type: wire.MsgStats, ReqID: 3}); err != nil {
		t.Fatal(err)
	}
	var st wire.StatsResult
	if f, err := wire.ReadFrame(raw); err != nil || f.Type != wire.MsgStatsResult || wire.Unmarshal(f, &st) != nil {
		t.Fatalf("stats: frame %v err %v", f.Type, err)
	}
	if st.Queries < 4 || st.Errors < 2 || st.Indexes != 1 || st.SessionsOpen != 2 || st.Draining {
		t.Fatalf("stats: %+v", st)
	}
	if st.ManagerIndexHits == 0 {
		t.Fatalf("manager counters missing: %+v", st)
	}
}

func TestAdminEndpoints(t *testing.T) {
	d := robotsDatabase(t)
	s := startServer(t, d.Engine, d, Config{AdminAddr: "127.0.0.1:0"})

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + s.AdminAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Generate one query so server counters are non-zero.
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(context.Background(), `select r.Name from r in OurRobots`); err != nil {
		t.Fatal(err)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz: %d %q", code, body)
	}
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	for _, series := range []string{
		"server_sessions_total", "server_requests_total", "server_query_seconds",
		"server_bytes_read_total", "server_bytes_written_total",
		"asr_queries_total", "query_runs_total", "storage_pool_pins_total",
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("/metrics missing %s:\n%s", series, body[:min(len(body), 2000)])
		}
	}
}

func TestHelloRequiredAndVersionCheck(t *testing.T) {
	d := robotsDatabase(t)
	s := startServer(t, d.Engine, d, Config{})

	// A non-Hello first frame gets a PROTOCOL error, then the server
	// hangs up.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.Frame{Type: wire.MsgPing, ReqID: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	var eb wire.ErrorBody
	if f.Type != wire.MsgError || wire.Unmarshal(f, &eb) != nil || eb.Code != wire.CodeProtocol {
		t.Fatalf("got %s %+v", f.Type, eb)
	}
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("connection stayed open after protocol violation")
	}

	// A version-mismatched Hello is refused.
	conn2, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	hf, _ := wire.Marshal(wire.MsgHello, 1, wire.Hello{Proto: 99})
	if err := wire.WriteFrame(conn2, hf); err != nil {
		t.Fatal(err)
	}
	f2, err := wire.ReadFrame(conn2)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Type != wire.MsgError || wire.Unmarshal(f2, &eb) != nil || eb.Code != wire.CodeProtocol {
		t.Fatalf("version mismatch: got %s %+v", f2.Type, eb)
	}
}

func TestConcurrentQueriesOneConnection(t *testing.T) {
	d := robotsDatabase(t)
	s := startServer(t, d.Engine, d, Config{MaxInflight: 64})
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sql := `select r.Name from r in OurRobots where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"`
	want, _ := renderInProcess(t, d, sql)
	const n = 32
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			res, err := c.Query(context.Background(), sql)
			if err == nil && strings.Join(res.Values, "\n") != strings.Join(want, "\n") {
				err = fmt.Errorf("result mismatch: %v", res.Values)
			}
			errc <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("concurrent query %d: %v", i, err)
		}
	}
}
