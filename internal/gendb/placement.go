package gendb

import (
	"encoding/binary"
	"fmt"

	"asr/internal/gom"
	"asr/internal/storage"
)

// Placement materializes a generated database on simulated pages with
// type clustering (§5.5): one record segment per level, record size
// size_i, so level i occupies op_i = ⌈c_i/⌊PageSize/size_i⌋⌉ pages.
// Records serialize the object's identity and its outgoing references so
// the query engine reads real bytes; set-valued attributes are embedded
// in their owner's record (the cost model assigns set objects no pages
// of their own).
type Placement struct {
	DB       *Database
	Pool     *storage.BufferPool
	Segments []*storage.Segment
	Loc      map[gom.OID]storage.RecordID
}

// Place lays the database out on pool with the given per-level record
// sizes (len n+1). A record must hold its object's header and all of its
// reference slots (16 + 8·fan_i bytes); Place validates this up front.
func Place(db *Database, pool *storage.BufferPool, sizes []int) (*Placement, error) {
	n := db.Spec.N
	if len(sizes) != n+1 {
		return nil, fmt.Errorf("gendb: Place: %d sizes for %d levels", len(sizes), n+1)
	}
	p := &Placement{
		DB:   db,
		Pool: pool,
		Loc:  make(map[gom.OID]storage.RecordID, db.Base.Count()),
	}
	for i := 0; i <= n; i++ {
		need := 16
		if i < n {
			need = 16 + 8*db.Spec.Fan[i]
		}
		if sizes[i] < need {
			return nil, fmt.Errorf("gendb: Place: size_%d = %d cannot hold %d reference bytes",
				i, sizes[i], need)
		}
		seg, err := storage.NewSegment(pool, fmt.Sprintf("T%d", i), sizes[i])
		if err != nil {
			return nil, err
		}
		p.Segments = append(p.Segments, seg)
		for _, id := range db.Extents[i] {
			o, _ := db.Base.Get(id)
			rid, err := seg.Insert(encodeRecord(db, o))
			if err != nil {
				return nil, err
			}
			p.Loc[id] = rid
		}
	}
	return p, nil
}

// encodeRecord serializes an object: OID, reference count, target OIDs.
func encodeRecord(db *Database, o *gom.Object) []byte {
	targets := db.targetsOf(o)
	buf := make([]byte, 16+8*len(targets))
	binary.BigEndian.PutUint64(buf[0:8], uint64(o.ID()))
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(targets)))
	for k, tgt := range targets {
		binary.BigEndian.PutUint64(buf[16+8*k:], uint64(tgt))
	}
	return buf
}

// ReadRecord fetches an object's record (charging one page access) and
// returns its outgoing references.
func (p *Placement) ReadRecord(id gom.OID) ([]gom.OID, error) {
	rid, ok := p.Loc[id]
	if !ok {
		return nil, fmt.Errorf("gendb: object %v not placed", id)
	}
	lvl := p.levelOf(id)
	buf := make([]byte, p.Segments[lvl].RecordSize())
	if err := p.Segments[lvl].Read(rid, buf); err != nil {
		return nil, err
	}
	cnt := binary.BigEndian.Uint64(buf[8:16])
	out := make([]gom.OID, 0, cnt)
	for k := uint64(0); k < cnt; k++ {
		out = append(out, gom.OID(binary.BigEndian.Uint64(buf[16+8*k:])))
	}
	return out, nil
}

// RewriteRecord refreshes an object's stored record after its references
// changed (charging one read-modify-write page access pair).
func (p *Placement) RewriteRecord(id gom.OID) error {
	rid, ok := p.Loc[id]
	if !ok {
		return fmt.Errorf("gendb: object %v not placed", id)
	}
	o, ok := p.DB.Base.Get(id)
	if !ok {
		return fmt.Errorf("gendb: object %v no longer live", id)
	}
	return p.Segments[p.levelOf(id)].Write(rid, encodeRecord(p.DB, o))
}

// levelOf determines the level from the object's type.
func (p *Placement) levelOf(id gom.OID) int {
	o, ok := p.DB.Base.Get(id)
	if !ok {
		return 0
	}
	if lvl := p.DB.Level(o.Type()); lvl >= 0 {
		return lvl
	}
	return 0
}
