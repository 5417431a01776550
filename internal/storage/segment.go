package storage

import (
	"fmt"
)

// RecordID addresses a record within a Segment.
type RecordID struct {
	Page PageID
	Slot int
}

// Segment is a type-clustered sequence of fixed-size records, the
// paper's object storage model (§5.5): objects are clustered by type, so
// a type with c_i objects of size_i bytes occupies
// op_i = ceil(c_i / floor(PageSize/size_i)) pages. Every record access
// goes through the buffer pool and is therefore counted.
type Segment struct {
	pool       *BufferPool
	name       string
	recordSize int
	perPage    int
	pages      []PageID
	nextSlot   int // next free slot on the last page
}

// NewSegment creates a record segment; recordSize must fit a page.
func NewSegment(pool *BufferPool, name string, recordSize int) (*Segment, error) {
	if recordSize <= 0 {
		return nil, fmt.Errorf("storage: segment %q: record size %d must be positive", name, recordSize)
	}
	if recordSize > pool.Disk().PageSize() {
		return nil, fmt.Errorf("storage: segment %q: record size %d exceeds page size %d",
			name, recordSize, pool.Disk().PageSize())
	}
	return &Segment{
		pool:       pool,
		name:       name,
		recordSize: recordSize,
		perPage:    pool.Disk().PageSize() / recordSize,
	}, nil
}

// RecordSize returns the fixed record size in bytes.
func (s *Segment) RecordSize() int { return s.recordSize }

// NumPages returns the allocated page count, the paper's op_i.
func (s *Segment) NumPages() int { return len(s.pages) }

// Insert stores a record (padded to the record size) in the next slot
// and returns its address.
func (s *Segment) Insert(data []byte) (RecordID, error) {
	if len(s.pages) == 0 || s.nextSlot >= s.perPage {
		fr, err := s.pool.GetNew()
		if err != nil {
			return RecordID{}, err
		}
		s.pages = append(s.pages, fr.ID())
		s.nextSlot = 0
		fr.Unpin()
	}
	id := RecordID{Page: s.pages[len(s.pages)-1], Slot: s.nextSlot}
	s.nextSlot++
	if err := s.Write(id, data); err != nil {
		return RecordID{}, err
	}
	return id, nil
}

// Read copies the record into buf (at most recordSize bytes), charging
// one page access.
func (s *Segment) Read(id RecordID, buf []byte) error {
	fr, err := s.frameFor(id)
	if err != nil {
		return err
	}
	defer fr.Unpin()
	copy(buf, fr.Data()[id.Slot*s.recordSize:(id.Slot+1)*s.recordSize])
	return nil
}

// Write overwrites the record, charging one page access.
func (s *Segment) Write(id RecordID, data []byte) error {
	if len(data) > s.recordSize {
		return fmt.Errorf("storage: segment %q: record of %d bytes exceeds record size %d",
			s.name, len(data), s.recordSize)
	}
	fr, err := s.frameFor(id)
	if err != nil {
		return err
	}
	defer fr.Unpin()
	slot := fr.Data()[id.Slot*s.recordSize : (id.Slot+1)*s.recordSize]
	copy(slot, data)
	for i := len(data); i < s.recordSize; i++ {
		slot[i] = 0
	}
	fr.MarkDirty()
	return nil
}

func (s *Segment) validate(id RecordID) error {
	if id.Slot < 0 || id.Slot >= s.perPage {
		return fmt.Errorf("storage: segment %q: slot %d out of range [0,%d)", s.name, id.Slot, s.perPage)
	}
	for _, p := range s.pages {
		if p == id.Page {
			return nil
		}
	}
	return fmt.Errorf("storage: segment %q: page %v not in segment", s.name, id.Page)
}

func (s *Segment) frameFor(id RecordID) (*Frame, error) {
	if err := s.validate(id); err != nil {
		return nil, err
	}
	return s.pool.Get(id.Page)
}
