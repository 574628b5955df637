package miniredis

import (
	"hpmp/internal/addr"
)

// Set / hash objects: a small chained table inside the arena.
// Object layout: [0..15] bucket heads, [16] count.
// Member node: [0] next, [1] member hash, [2] member blob VA, [3] value
// blob VA (hashes only; 0 for sets).

const (
	setBuckets = 16
	setCount   = setBuckets
	setWords   = setBuckets + 1

	memNext  = 0
	memHash  = 1
	memKey   = 2
	memVal   = 3
	memWords = 4
)

// findMember walks a collection bucket chain for member.
func (s *Server) findMember(obj addr.VA, member string) addr.VA {
	h := hashKey(member)
	for cur := s.word(obj, int(h%setBuckets)); cur != 0; cur = s.word(addr.VA(cur), memNext) {
		node := addr.VA(cur)
		if s.word(node, memHash) == h && string(s.loadBlob(addr.VA(s.word(node, memKey)))) == member {
			return node
		}
	}
	return 0
}

// addMember inserts a member node (no duplicate check).
func (s *Server) addMember(obj addr.VA, member string, valBlob addr.VA) error {
	h := hashKey(member)
	kb, err := s.storeBlob([]byte(member))
	if err != nil {
		return err
	}
	node, err := s.alloc(memWords * 8)
	if err != nil {
		return err
	}
	bslot := int(h % setBuckets)
	head := s.word(obj, bslot)
	s.setWord(node, memNext, head)
	s.setWord(node, memHash, h)
	s.setWord(node, memKey, uint64(kb))
	s.setWord(node, memVal, uint64(valBlob))
	s.setWord(obj, bslot, uint64(node))
	s.setWord(obj, setCount, s.word(obj, setCount)+1)
	return nil
}

// SAdd adds a member to a set; returns true when newly added.
func (s *Server) SAdd(key, member string) (bool, error) {
	obj, err := s.object(key, typeSet, setWords)
	if err != nil {
		return false, err
	}
	if s.findMember(obj, member) != 0 {
		return false, s.e.Err()
	}
	return true, s.e.ErrOr(s.addMember(obj, member, 0))
}

// SCard returns the set cardinality.
func (s *Server) SCard(key string) (uint64, error) {
	obj := s.value(key)
	if obj == 0 {
		return 0, s.e.Err()
	}
	return s.word(obj, setCount), s.e.Err()
}

// SPop removes and returns an arbitrary member (first found), or "" when
// empty.
func (s *Server) SPop(key string) (string, error) {
	obj := s.value(key)
	if obj == 0 {
		return "", s.e.Err()
	}
	for b := 0; b < setBuckets; b++ {
		head := s.word(obj, b)
		if head == 0 {
			continue
		}
		node := addr.VA(head)
		next := s.word(node, memNext)
		kb := s.loadBlob(addr.VA(s.word(node, memKey)))
		s.setWord(obj, b, next)
		if n := s.word(obj, setCount); n > 0 {
			s.setWord(obj, setCount, n-1)
		}
		return string(kb), s.e.Err()
	}
	return "", s.e.Err()
}

// HSet sets field=val in a hash; returns true when the field is new.
func (s *Server) HSet(key, field string, val []byte) (bool, error) {
	obj, err := s.object(key, typeHash, setWords)
	if err != nil {
		return false, err
	}
	blob, err := s.storeBlob(val)
	if err != nil {
		return false, err
	}
	if node := s.findMember(obj, field); node != 0 {
		s.setWord(node, memVal, uint64(blob))
		return false, s.e.Err()
	}
	return true, s.e.ErrOr(s.addMember(obj, field, blob))
}

// HGet fetches a hash field (nil when absent).
func (s *Server) HGet(key, field string) ([]byte, error) {
	obj := s.value(key)
	if obj == 0 {
		return nil, s.e.Err()
	}
	node := s.findMember(obj, field)
	if node == 0 {
		return nil, s.e.Err()
	}
	vp := s.word(node, memVal)
	if vp == 0 {
		return nil, s.e.Err()
	}
	return s.loadBlob(addr.VA(vp)), s.e.Err()
}
