// Command gomshell is a small interactive shell over the GOM object
// model and access support relations: define a schema, populate objects,
// declare indexes, and run path queries — the workflow of §2 and §3.
//
//	$ gomshell
//	gom> type PERSON is [Name: STRING, Lives: CITY];
//	gom> type CITY is [Name: STRING];
//	gom> new CITY as $c
//	gom> set $c.Name = "Karlsruhe"
//	gom> new PERSON as $p
//	gom> set $p.Lives = $c
//	gom> index full binary on PERSON.Lives.Name
//	gom> query backward "Karlsruhe" via PERSON.Lives.Name
//	gom> quit
//
// A script can be piped on stdin; see examples/ for scripted uses of the
// underlying API.
package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"asr/internal/dump"
	"asr/internal/gom"
	"asr/internal/query"
	"asr/internal/server"
	"asr/internal/storage"
	"asr/internal/telemetry"
)

type shell struct {
	// db is the session's database: index manager, query engine and —
	// after \save / \open — the durable file set, whose whole lifecycle
	// is server.Database's. base is db.Base.
	db      *server.Database
	base    *gom.ObjectBase
	vars    map[string]gom.OID
	pending strings.Builder // accumulated type declarations
	out     *bufio.Writer
}

func main() {
	sh := &shell{
		vars: map[string]gom.OID{},
		out:  bufio.NewWriter(os.Stdout),
	}
	for _, arg := range os.Args[1:] {
		if arg == "-h" || arg == "-help" || arg == "--help" {
			fmt.Print("gomshell — interactive shell over the GOM object model and access support relations.\n" +
				"Reads commands from stdin (pipe a script, or type at the gom> prompt).\n\n")
			sh.out = bufio.NewWriter(os.Stdout)
			sh.help()
			sh.out.Flush()
			return
		}
		fmt.Fprintf(os.Stderr, "gomshell: unknown argument %q (try -h)\n", arg)
		os.Exit(2)
	}
	sh.reset()
	interactive := isTerminal()
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		if interactive {
			fmt.Fprint(sh.out, "gom> ")
			sh.out.Flush()
		}
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "--") || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		if err := sh.exec(line); err != nil {
			fmt.Fprintln(sh.out, "error:", err)
		}
		sh.out.Flush()
	}
	sh.out.Flush()
}

func isTerminal() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func (sh *shell) reset() {
	sh.use(server.NewMemoryDatabase(gom.NewObjectBase(gom.NewSchema()), nil))
}

// use makes db the session's database, releasing the previous one.
func (sh *shell) use(db *server.Database) {
	sh.closeDurable()
	sh.db, sh.base = db, db.Base
}

// adopt is use for a database restored from disk (load, \open): the
// shell variables become the base's bound vars and the accumulated
// declarations are forgotten.
func (sh *shell) adopt(db *server.Database) {
	sh.use(db)
	sh.vars = map[string]gom.OID{}
	for _, name := range sh.base.VarNames() {
		if id, ok := sh.base.Var(name); ok {
			sh.vars[name] = id
		}
	}
	sh.pending.Reset()
}

// closeDurable checkpoints and releases the file-backed storage of a
// \save / \open session (a no-op for an in-memory one).
func (sh *shell) closeDurable() {
	if sh.db != nil {
		sh.db.Close()
	}
}

func (sh *shell) exec(line string) error {
	fields := strings.Fields(line)
	if strings.EqualFold(fields[0], "select") {
		return sh.cmdSelect(line)
	}
	switch fields[0] {
	case "help":
		sh.help()
		return nil
	case "type", "var":
		// Accumulate declarations; re-parse the whole schema each time so
		// forward references across commands work. Objects survive only
		// when the schema is extended, so declare types before data.
		sh.pending.WriteString(line)
		sh.pending.WriteString("\n")
		schema, vars, err := gom.ParseSchema(sh.pending.String())
		if err != nil {
			// Roll back the failed declaration.
			s := sh.pending.String()
			sh.pending.Reset()
			sh.pending.WriteString(strings.TrimSuffix(s, line+"\n"))
			return err
		}
		if sh.base.Count() > 0 {
			return fmt.Errorf("declare all types before creating objects")
		}
		sh.use(server.NewMemoryDatabase(gom.NewObjectBase(schema), nil))
		for _, v := range vars {
			fmt.Fprintf(sh.out, "declared var %s: %s (bind with 'new %s as $%s')\n",
				v.Name, v.Type.Name(), v.Type.Name(), v.Name)
		}
		return nil
	case "new":
		return sh.cmdNew(fields[1:])
	case "set":
		return sh.cmdSet(line)
	case "insert":
		return sh.cmdInsert(fields[1:])
	case "show":
		return sh.cmdShow(fields[1:])
	case "extent":
		return sh.cmdExtent(fields[1:])
	case "schema":
		for _, t := range sh.base.Schema().Types() {
			if t.Kind() != gom.AtomicType {
				fmt.Fprintln(sh.out, t.Definition())
			}
		}
		return nil
	case "index":
		return sh.cmdIndex(fields[1:])
	case "query":
		return sh.cmdQuery(fields[1:])
	case "save":
		return sh.cmdSave(fields[1:])
	case "load":
		return sh.cmdLoad(fields[1:])
	case `\save`:
		return sh.cmdSaveBase(fields[1:])
	case `\open`:
		return sh.cmdOpenBase(fields[1:])
	case `\checkpoint`:
		return sh.cmdCheckpoint()
	case `\backup`:
		return sh.cmdBackup(fields[1:])
	case `\restore`:
		return sh.cmdRestore(fields[1:])
	case `\metrics`:
		_, err := telemetry.Default().WriteTo(sh.out)
		return err
	case `\pool`:
		return sh.cmdPool()
	case `\explain`:
		return sh.cmdExplain(strings.TrimSpace(strings.TrimPrefix(line, `\explain`)))
	default:
		return fmt.Errorf("unknown command %q (try 'help')", fields[0])
	}
}

func (sh *shell) help() {
	fmt.Fprint(sh.out, `commands:
  type NAME is [A: T, ...];        declare a tuple type (also {T}, <T>, supertypes (...))
  var NAME: TYPE;                  declare a schema-level collection variable
  new TYPE as $x                   instantiate and bind a variable
  set $x.Attr = VALUE              assign ($y, "str", 42, 3.14, true, null)
  insert $y into $x                insert into a set object
  show $x                          print an object
  extent TYPE                      list instances
  schema                           print declared types
  index EXT DEC on TYPE.A.B...     build an ASR (EXT: can|full|left|right; DEC: binary|none)
  query forward $x via TYPE.A.B    objects reachable from $x
  query backward VALUE via ...     anchors reaching VALUE
  select p from v in Var where ... SQL-like query (paper syntax, §2.2/2.3)
  \explain [analyze] select ...    strategy + cost-model prediction; with
                                   analyze, run it and report predicted vs actual
  \metrics                         dump the telemetry registry (Prometheus text)
  \pool                            buffer-pool shard layout and per-shard stats
  save FILE / load FILE            dump or restore the object base (JSON)
  \save BASE                       persist the whole session durably: objects to
                                   BASE.gom, index pages to BASE.pages (+ WAL),
                                   index topology to BASE.manifest
  \open BASE                       crash-recover BASE.pages via the WAL and
                                   reopen the session (objects, indexes, vars)
  \checkpoint                      flush dirty pages, sync, recycle the WAL
  \backup DIR                      online backup of the durable session into DIR
                                   (page file + manifest + dump + watermarks)
  \restore BK ARCH BASE [LSN]      lay backup BK down at BASE and replay the WAL
                                   archive ARCH up to LSN (omit: everything);
                                   then \open BASE
  help                             this list
  quit (or exit)                   leave the shell; lines starting -- or # are comments

docs: docs/ARCHITECTURE.md (package map), docs/OBSERVABILITY.md (\explain,
      \metrics), docs/ROBUSTNESS.md (\save/\open/\checkpoint, recovery),
      docs/SERVICE.md (serve a saved base with gomd -db BASE)
`)
}

func (sh *shell) cmdNew(args []string) error {
	if len(args) != 3 || args[1] != "as" || !strings.HasPrefix(args[2], "$") {
		return fmt.Errorf("usage: new TYPE as $x")
	}
	t, ok := sh.base.Schema().Lookup(args[0])
	if !ok {
		return fmt.Errorf("unknown type %q", args[0])
	}
	o, err := sh.base.New(t)
	if err != nil {
		return err
	}
	sh.vars[args[2][1:]] = o.ID()
	fmt.Fprintf(sh.out, "%s = %s\n", args[2], o.ID())
	return nil
}

// parseValue interprets a literal or $variable.
func (sh *shell) parseValue(tok string) (gom.Value, error) {
	switch {
	case tok == "null":
		return nil, nil
	case tok == "true":
		return gom.Bool(true), nil
	case tok == "false":
		return gom.Bool(false), nil
	case strings.HasPrefix(tok, "$"):
		id, ok := sh.vars[tok[1:]]
		if !ok {
			return nil, fmt.Errorf("unbound variable %s", tok)
		}
		return gom.Ref(id), nil
	case strings.HasPrefix(tok, `"`):
		s, err := strconv.Unquote(tok)
		if err != nil {
			return nil, fmt.Errorf("bad string literal %s", tok)
		}
		return gom.String(s), nil
	case strings.ContainsAny(tok, "."):
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %s", tok)
		}
		return gom.Decimal(f), nil
	default:
		n, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad literal %s", tok)
		}
		return gom.Integer(n), nil
	}
}

func (sh *shell) cmdSet(line string) error {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "set"))
	eq := strings.Index(rest, "=")
	if eq < 0 {
		return fmt.Errorf("usage: set $x.Attr = VALUE")
	}
	lhs := strings.TrimSpace(rest[:eq])
	rhs := strings.TrimSpace(rest[eq+1:])
	dot := strings.Index(lhs, ".")
	if !strings.HasPrefix(lhs, "$") || dot < 0 {
		return fmt.Errorf("usage: set $x.Attr = VALUE")
	}
	id, ok := sh.vars[lhs[1:dot]]
	if !ok {
		return fmt.Errorf("unbound variable %s", lhs[:dot])
	}
	v, err := sh.parseValue(rhs)
	if err != nil {
		return err
	}
	return sh.base.SetAttr(id, lhs[dot+1:], v)
}

func (sh *shell) cmdInsert(args []string) error {
	if len(args) != 3 || args[1] != "into" {
		return fmt.Errorf("usage: insert VALUE into $set")
	}
	v, err := sh.parseValue(args[0])
	if err != nil {
		return err
	}
	set, err := sh.parseValue(args[2])
	if err != nil {
		return err
	}
	ref, ok := set.(gom.Ref)
	if !ok {
		return fmt.Errorf("%s is not an object", args[2])
	}
	return sh.base.InsertIntoSet(ref.OID(), v)
}

func (sh *shell) cmdShow(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: show $x")
	}
	v, err := sh.parseValue(args[0])
	if err != nil {
		return err
	}
	ref, ok := v.(gom.Ref)
	if !ok {
		fmt.Fprintln(sh.out, gom.ValueString(v))
		return nil
	}
	o, ok := sh.base.Get(ref.OID())
	if !ok {
		return fmt.Errorf("object %s deleted", ref.OID())
	}
	fmt.Fprintln(sh.out, o.String())
	return nil
}

func (sh *shell) cmdExtent(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: extent TYPE")
	}
	t, ok := sh.base.Schema().Lookup(args[0])
	if !ok {
		return fmt.Errorf("unknown type %q", args[0])
	}
	for _, id := range sh.base.Extent(t, true) {
		o, _ := sh.base.Get(id)
		fmt.Fprintln(sh.out, o.String())
	}
	return nil
}

func (sh *shell) cmdIndex(args []string) error {
	if len(args) != 4 || args[2] != "on" {
		return fmt.Errorf("usage: index EXT DEC on TYPE.A.B...")
	}
	ix, err := sh.db.CreateIndex(args[0], args[1], args[3])
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "built %s\n", ix)
	return nil
}

func (sh *shell) cmdQuery(args []string) error {
	if len(args) != 4 || args[2] != "via" {
		return fmt.Errorf("usage: query forward|backward VALUE via TYPE.A.B...")
	}
	path, err := gom.ParsePath(sh.base.Schema(), args[3])
	if err != nil {
		return err
	}
	v, err := sh.parseValue(args[1])
	if err != nil {
		return err
	}
	var results []gom.Value
	switch args[0] {
	case "forward":
		results, err = sh.db.Manager.QueryForward(path, 0, path.Len(), v)
	case "backward":
		results, err = sh.db.Manager.QueryBackward(path, 0, path.Len(), v)
	default:
		return fmt.Errorf("query kind %q, want forward|backward", args[0])
	}
	if err != nil {
		return err
	}
	if len(results) == 0 {
		fmt.Fprintln(sh.out, "(no results)")
		return nil
	}
	for _, r := range results {
		if ref, ok := r.(gom.Ref); ok {
			if o, live := sh.base.Get(ref.OID()); live {
				fmt.Fprintln(sh.out, o.String())
				continue
			}
		}
		fmt.Fprintln(sh.out, gom.ValueString(r))
	}
	return nil
}

// bindCollections binds collections named in from-clauses — which refer
// to shell variables — as database vars so the query engine can resolve
// them.
func (sh *shell) bindCollections(q *query.Query) error {
	for _, r := range q.Ranges {
		if r.Collection == "" {
			continue
		}
		if _, ok := sh.base.Var(r.Collection); ok {
			continue
		}
		if id, ok := sh.vars[r.Collection]; ok {
			if err := sh.base.BindVar(r.Collection, id); err != nil {
				return err
			}
		}
	}
	return nil
}

// cmdExplain reports the strategy and cost-model prediction for a
// select query; with the analyze keyword it also runs the query and
// reports predicted versus measured access counts.
func (sh *shell) cmdExplain(rest string) error {
	analyze := false
	if f := strings.Fields(rest); len(f) > 0 && strings.EqualFold(f[0], "analyze") {
		analyze = true
		rest = strings.TrimSpace(rest[len(f[0]):])
	}
	q, err := query.Parse(rest)
	if err != nil {
		return err
	}
	if err := sh.bindCollections(q); err != nil {
		return err
	}
	eng := sh.db.Engine
	if analyze {
		a, err := eng.ExplainAnalyze(context.Background(), q)
		if err != nil {
			return err
		}
		fmt.Fprint(sh.out, a.String())
		return nil
	}
	x, err := eng.Explain(q)
	if err != nil {
		return err
	}
	fmt.Fprint(sh.out, x.String())
	return nil
}

// cmdPool prints the buffer pool's shard layout and per-shard counters,
// plus the aggregate — the interactive view of what ShardStats exposes
// to telemetry.
func (sh *shell) cmdPool() error {
	pool := sh.db.Manager.Pool()
	fmt.Fprintf(sh.out, "shards: %d  resident pages: %d\n", pool.NumShards(), pool.Resident())
	fmt.Fprintf(sh.out, "%-6s %9s %9s %9s %9s %9s %9s\n",
		"shard", "accesses", "hits", "misses", "evicts", "wbacks", "pins")
	for i, s := range pool.ShardStats() {
		fmt.Fprintf(sh.out, "%-6d %9d %9d %9d %9d %9d %9d\n",
			i, s.LogicalAccesses, s.Hits, s.Misses, s.Evictions, s.WriteBacks, s.Pins)
	}
	t := pool.Stats()
	fmt.Fprintf(sh.out, "%-6s %9d %9d %9d %9d %9d %9d\n",
		"total", t.LogicalAccesses, t.Hits, t.Misses, t.Evictions, t.WriteBacks, t.Pins)
	return nil
}

// cmdSelect evaluates a select-from-where query in the paper's notation,
// routing predicates through declared indexes when possible.
func (sh *shell) cmdSelect(line string) error {
	q, err := query.Parse(line)
	if err != nil {
		return err
	}
	if err := sh.bindCollections(q); err != nil {
		return err
	}
	res, err := sh.db.Engine.Run(q)
	if err != nil {
		return err
	}
	if len(res.Values) == 0 {
		fmt.Fprintln(sh.out, "(no results)")
	}
	for _, v := range res.Values {
		if ref, ok := v.(gom.Ref); ok {
			if o, live := sh.base.Get(ref.OID()); live {
				fmt.Fprintln(sh.out, o.String())
				continue
			}
		}
		fmt.Fprintln(sh.out, gom.ValueString(v))
	}
	fmt.Fprintf(sh.out, "plan: %s\n", res.Plan)
	return nil
}

// cmdSave writes the object base (schema, objects, vars) to a binary
// snapshot file.
func (sh *shell) cmdSave(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: save FILE")
	}
	if err := dump.SaveFile(sh.base, args[0]); err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "saved %d objects to %s\n", sh.base.Count(), args[0])
	return nil
}

// cmdLoad restores an object base from a binary snapshot; indexes must
// be re-declared afterwards (they are derived data).
func (sh *shell) cmdLoad(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: load FILE")
	}
	db, err := server.LoadDumpFile(args[0], nil, nil)
	if err != nil {
		return err
	}
	sh.adopt(db)
	fmt.Fprintf(sh.out, "loaded %d objects from %s (re-declare indexes with 'index')\n", sh.base.Count(), args[0])
	return nil
}

// cmdSaveBase persists the whole session durably under BASE
// (server.Database.SaveAs): the object base to BASE.gom, the index pages
// to a checksummed page file BASE.pages with write-ahead log
// BASE.pages.wal, and the index topology to BASE.manifest. A session not
// already backed by BASE is moved there first, after which it keeps
// running file-backed — later maintenance is WAL-logged and survives a
// crash (see \open).
func (sh *shell) cmdSaveBase(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf(`usage: \save BASE`)
	}
	db, err := sh.db.SaveAs(args[0])
	if db != nil {
		sh.db = db // shares sh.base; SaveAs retired the previous one
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "saved %d objects and %d indexes to %s.{gom,pages,manifest}\n",
		sh.base.Count(), len(sh.db.Manager.Indexes()), args[0])
	return nil
}

// cmdOpenBase reopens a session saved with \save
// (server.OpenDurableBase): the page file is crash-recovered through
// its WAL (committed maintenance transactions are redone, incomplete
// ones discarded), the object base is loaded from BASE.gom, and the
// indexes are reconstructed from BASE.manifest without rebuilding their
// trees.
func (sh *shell) cmdOpenBase(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf(`usage: \open BASE`)
	}
	db, info, err := server.OpenDurableBase(args[0], "")
	if err != nil {
		return err
	}
	sh.adopt(db)
	fmt.Fprintf(sh.out, "opened %s: %d objects, %d indexes (%s)\n",
		args[0], sh.base.Count(), len(db.Manager.Indexes()), info)
	quarantined := 0
	for _, ix := range db.Manager.Indexes() {
		if ix.Quarantined() {
			quarantined++
		}
	}
	if quarantined > 0 {
		fmt.Fprintf(sh.out, "warning: %d indexes quarantined; queries fall back until repaired\n", quarantined)
	}
	return nil
}

// cmdCheckpoint flushes every dirty page to the device, syncs it, and —
// with no transaction in flight — recycles the WAL, bounding the work a
// future \open has to redo. An in-memory session has nothing to flush to.
func (sh *shell) cmdCheckpoint() error {
	if err := sh.db.Checkpoint(); err != nil {
		return err
	}
	if !sh.db.Durable() {
		fmt.Fprintln(sh.out, "checkpoint complete (in-memory pool, no WAL)")
		return nil
	}
	st := sh.db.WAL().Stats()
	fmt.Fprintf(sh.out, "checkpoint complete: wal records=%d commits=%d syncs=%d truncations=%d\n",
		st.Records, st.Commits, st.Syncs, st.Truncations)
	return nil
}

// cmdBackup streams an online backup of the durable session into DIR
// (server.Database.Backup): the page file copied under per-page latches,
// plus the manifest and object-base snapshot, re-saved first so the
// backup reflects the session as it stands. Restore it with \restore.
func (sh *shell) cmdBackup(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf(`usage: \backup DIR`)
	}
	if !sh.db.Durable() {
		return fmt.Errorf(`\backup needs a durable session (\save or \open first)`)
	}
	info, err := sh.db.Backup(args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "backed up %d pages (%d bytes, %d torn) to %s; watermarks %d..%d\n",
		info.Pages, info.Bytes, info.TornPages, info.Dir, info.StartLSN, info.EndLSN)
	return nil
}

// cmdRestore performs point-in-time recovery outside any session: it
// lays the backup down at BASE and replays the WAL archive up to the
// target LSN (omitted: everything archived). The restored base is then
// a normal durable base — \open BASE (or gomd -db BASE) runs recovery
// and routes anything the archive could not supply through quarantine
// → Repair.
func (sh *shell) cmdRestore(args []string) error {
	if len(args) != 3 && len(args) != 4 {
		return fmt.Errorf(`usage: \restore BACKUP_DIR ARCHIVE_DIR BASE [TARGET_LSN]`)
	}
	var target uint64
	if len(args) == 4 {
		n, err := strconv.ParseUint(args[3], 10, 64)
		if err != nil {
			return fmt.Errorf("target LSN %q: %w", args[3], err)
		}
		target = n
	}
	info, err := storage.Restore(args[0], args[1], args[2], target)
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "restored %s to LSN %d: %d records applied, %d pages healed\n",
		args[2], info.TargetLSN, info.RecordsApplied, info.HealedPages)
	if n := len(info.PastTargetPages); n > 0 {
		fmt.Fprintf(sh.out, "%d pages were past the target and are quarantined for Repair\n", n)
	}
	if n := len(info.QuarantinedPages); n > 0 {
		fmt.Fprintf(sh.out, "WARNING: %d pages unhealable from the archive (quarantined)\n", n)
	}
	fmt.Fprintf(sh.out, `open it with \open %s (or serve it: gomd -db %s)`+"\n", args[2], args[2])
	return nil
}
