// Package miniredis implements the in-memory data store used by the §8.5
// experiment: a Redis-like server whose dictionary, lists, sets, hashes,
// and string values all live in *simulated* memory, so every command's
// pointer chasing drives the TLB/walk machinery exactly like the real
// Redis workload drives real hardware.
//
// The companion Benchmark type mirrors redis-benchmark's methodology: a
// configurable client count, 3-byte values, random keys from a bounded
// keyspace, and a requests-per-second result per command type (Fig. 12-d/e).
package miniredis

import (
	"fmt"
	"sort"

	"hpmp/internal/addr"
	"hpmp/internal/kernel"
)

// Object types stored in the dictionary.
const (
	typeString = 1
	typeList   = 2
	typeSet    = 3
	typeHash   = 4
)

// Entry word offsets (8-byte words). Each dict entry is a fixed 6-word
// record followed by the inline key bytes.
const (
	entHash        = 0 // key hash
	entNext        = 1 // VA of next entry in bucket chain (0 = none)
	entType        = 2 // object type
	entKLen        = 3 // key length in bytes
	entVal         = 4 // VA of the value object
	entature       = 5 // reserved
	entHeaderWords = 6
)

// Server is one mini-redis instance bound to a process environment.
type Server struct {
	e *kernel.Env

	arenaBase addr.VA
	// Page-grained scatter allocation: real allocators (jemalloc in Redis)
	// spread objects across many pages, which is what makes Redis
	// TLB-hungry. pageOff tracks the bump offset inside each arena page;
	// allocRNG picks pages pseudo-randomly.
	pageOff  []uint16
	allocRNG uint64

	buckets  addr.VA // bucket array: nBuckets × 8 bytes
	nBuckets uint64
}

// NewServer creates a server with an arenaBytes-sized object arena and a
// power-of-two bucket count.
func NewServer(e *kernel.Env, arenaBytes uint64, nBuckets uint64) (*Server, error) {
	if nBuckets == 0 || nBuckets&(nBuckets-1) != 0 {
		return nil, fmt.Errorf("miniredis: bucket count must be a power of two")
	}
	arenaBytes = addr.AlignUp(arenaBytes, addr.PageSize)
	s := &Server{
		e:         e,
		arenaBase: e.Alloc(arenaBytes),
		pageOff:   make([]uint16, arenaBytes/addr.PageSize),
		allocRNG:  0x6a09e667f3bcc909,
		nBuckets:  nBuckets,
		buckets:   e.Alloc(nBuckets * 8),
	}
	// Zero the bucket array (touch it in).
	if err := e.Touch(s.buckets, nBuckets*8); err != nil {
		return nil, err
	}
	return s, nil
}

// alloc carves n bytes (8-byte aligned) from a pseudo-randomly chosen
// arena page, spreading objects across pages the way slab allocators do.
// Objects larger than a page fall back to contiguous page runs.
func (s *Server) alloc(n uint64) (addr.VA, error) {
	n = addr.AlignUp(n, 8)
	if n > addr.PageSize {
		return s.allocLarge(n)
	}
	nPages := uint64(len(s.pageOff))
	for attempt := uint64(0); attempt < nPages; attempt++ {
		s.allocRNG ^= s.allocRNG >> 12
		s.allocRNG ^= s.allocRNG << 25
		s.allocRNG ^= s.allocRNG >> 27
		page := (s.allocRNG * 0x2545f4914f6cdd1d) % nPages
		off := uint64(s.pageOff[page])
		if off+n <= addr.PageSize {
			s.pageOff[page] = uint16(off + n)
			return s.arenaBase + addr.VA(page*addr.PageSize+off), nil
		}
	}
	return 0, fmt.Errorf("miniredis: arena exhausted (%d pages full)", nPages)
}

// allocLarge grabs whole contiguous pages for big objects.
func (s *Server) allocLarge(n uint64) (addr.VA, error) {
	pages := int(addr.AlignUp(n, addr.PageSize) / addr.PageSize)
	run := 0
	for i := range s.pageOff {
		if s.pageOff[i] == 0 {
			run++
			if run == pages {
				start := i - pages + 1
				for j := start; j <= i; j++ {
					s.pageOff[j] = addr.PageSize - 1 // mark full
				}
				return s.arenaBase + addr.VA(uint64(start)*addr.PageSize), nil
			}
		} else {
			run = 0
		}
	}
	return 0, fmt.Errorf("miniredis: no contiguous run of %d pages", pages)
}

func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h | 1 // never zero
}

func (s *Server) bucketVA(h uint64) addr.VA {
	return s.buckets + addr.VA((h&(s.nBuckets-1))*8)
}

// word reads entry word i of the record at va.
func (s *Server) word(va addr.VA, i int) uint64 {
	return s.e.Load64(va + addr.VA(i*8))
}

func (s *Server) setWord(va addr.VA, i int, v uint64) {
	s.e.Store64(va+addr.VA(i*8), v)
}

// findEntry walks the bucket chain for key. Returns the entry VA or 0.
func (s *Server) findEntry(key string) addr.VA {
	h := hashKey(key)
	for cur := s.e.Load64(s.bucketVA(h)); cur != 0; cur = s.word(addr.VA(cur), entNext) {
		eva := addr.VA(cur)
		if s.word(eva, entHash) != h {
			continue
		}
		if klen := s.word(eva, entKLen); int(klen) == len(key) &&
			string(s.e.LoadBytes(eva+addr.VA(entHeaderWords*8), klen)) == key {
			return eva
		}
	}
	return 0
}

// createEntry inserts a fresh entry for key with the given type, returning
// its VA. The caller sets the value pointer.
func (s *Server) createEntry(key string, typ uint64) (addr.VA, error) {
	h := hashKey(key)
	eva, err := s.alloc(uint64(entHeaderWords*8 + len(key)))
	if err != nil {
		return 0, err
	}
	bva := s.bucketVA(h)
	head := s.e.Load64(bva)
	s.setWord(eva, entHash, h)
	s.setWord(eva, entNext, head)
	s.setWord(eva, entType, typ)
	s.setWord(eva, entKLen, uint64(len(key)))
	s.setWord(eva, entVal, 0)
	s.e.StoreBytes(eva+addr.VA(entHeaderWords*8), []byte(key))
	s.e.Store64(bva, uint64(eva))
	return eva, nil
}

// lookupOrCreate returns the entry for key, creating it with typ when
// absent. It errors when the existing type conflicts.
func (s *Server) lookupOrCreate(key string, typ uint64) (addr.VA, bool, error) {
	if eva := s.findEntry(key); eva != 0 {
		if s.word(eva, entType) != typ {
			return 0, false, s.e.ErrOr(fmt.Errorf("miniredis: WRONGTYPE for key %q", key))
		}
		return eva, false, nil
	}
	eva, err := s.createEntry(key, typ)
	return eva, true, err
}

// object returns the value object of key, creating the entry and a
// zeroed object of the given words when key is absent.
func (s *Server) object(key string, typ uint64, words int) (addr.VA, error) {
	eva, created, err := s.lookupOrCreate(key, typ)
	if err != nil {
		return 0, err
	}
	if !created {
		return addr.VA(s.word(eva, entVal)), nil
	}
	obj, err := s.alloc(uint64(words) * 8)
	if err != nil {
		return 0, err
	}
	for i := 0; i < words; i++ {
		s.setWord(obj, i, 0)
	}
	s.setWord(eva, entVal, uint64(obj))
	return obj, nil
}

// value returns the value pointer of key's entry, or 0 when key is absent
// or has no value.
func (s *Server) value(key string) addr.VA {
	if eva := s.findEntry(key); eva != 0 {
		return addr.VA(s.word(eva, entVal))
	}
	return 0
}

// storeBlob writes a {len, bytes} blob into the arena, returning its VA.
func (s *Server) storeBlob(data []byte) (addr.VA, error) {
	va, err := s.alloc(uint64(8 + len(data)))
	if err != nil {
		return 0, err
	}
	s.e.Store64(va, uint64(len(data)))
	s.e.StoreBytes(va+8, data)
	return va, nil
}

// loadBlob reads a {len, bytes} blob.
func (s *Server) loadBlob(va addr.VA) []byte {
	return s.e.LoadBytes(va+8, s.e.Load64(va))
}

// Each command below returns the environment's Err() when it finishes, so
// a command whose access failed reports that failure.

// Ping answers PING (protocol-only command).
func (s *Server) Ping() string {
	s.e.Compute(120) // parse + reply formatting
	return "PONG"
}

// Set stores a string value.
func (s *Server) Set(key string, val []byte) error {
	eva, _, err := s.lookupOrCreate(key, typeString)
	if err != nil {
		return err
	}
	blob, err := s.storeBlob(val)
	if err != nil {
		return err
	}
	s.setWord(eva, entVal, uint64(blob))
	return s.e.Err()
}

// Get fetches a string value (nil when absent).
func (s *Server) Get(key string) ([]byte, error) {
	vp := s.value(key)
	if vp == 0 {
		return nil, s.e.Err()
	}
	return s.loadBlob(vp), s.e.Err()
}

// Incr parses the stored decimal value, adds one, stores it back, and
// returns the new value.
func (s *Server) Incr(key string) (int64, error) {
	eva, created, err := s.lookupOrCreate(key, typeString)
	if err != nil {
		return 0, err
	}
	var cur int64
	if !created {
		if vp := s.word(eva, entVal); vp != 0 {
			for _, c := range s.loadBlob(addr.VA(vp)) {
				if c < '0' || c > '9' {
					return 0, s.e.ErrOr(fmt.Errorf("miniredis: value not an integer"))
				}
				cur = cur*10 + int64(c-'0')
			}
		}
	}
	cur++
	blob, err := s.storeBlob([]byte(fmt.Sprintf("%d", cur)))
	if err != nil {
		return 0, err
	}
	s.setWord(eva, entVal, uint64(blob))
	return cur, s.e.Err()
}

// MSet stores several key/value pairs. Keys are applied in sorted order so
// the simulated store's layout (and hence timing) does not depend on Go's
// random map iteration order.
func (s *Server) MSet(pairs map[string][]byte) error {
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := s.Set(k, pairs[k]); err != nil {
			return err
		}
	}
	return nil
}
