package miniredis

import (
	"fmt"

	"hpmp/internal/addr"
)

// List object layout (words): [0] head node VA, [1] tail node VA, [2] len.
// Node layout: [0] next VA, [1] prev VA, [2] value blob VA.

const (
	listHead  = 0
	listTail  = 1
	listLen   = 2
	listWords = 3

	nodeNext  = 0
	nodePrev  = 1
	nodeVal   = 2
	nodeWords = 3
)

// LPush prepends a value and returns the new length.
func (s *Server) LPush(key string, val []byte) (uint64, error) {
	return s.push(key, val, true)
}

// RPush appends a value and returns the new length.
func (s *Server) RPush(key string, val []byte) (uint64, error) {
	return s.push(key, val, false)
}

func (s *Server) push(key string, val []byte, left bool) (uint64, error) {
	obj, err := s.object(key, typeList, listWords)
	if err != nil {
		return 0, err
	}
	blob, err := s.storeBlob(val)
	if err != nil {
		return 0, err
	}
	node, err := s.alloc(nodeWords * 8)
	if err != nil {
		return 0, err
	}
	s.setWord(node, nodeVal, uint64(blob))
	head := s.word(obj, listHead)
	tail := s.word(obj, listTail)
	if left {
		s.setWord(node, nodeNext, head)
		s.setWord(node, nodePrev, 0)
		if head != 0 {
			s.setWord(addr.VA(head), nodePrev, uint64(node))
		}
		s.setWord(obj, listHead, uint64(node))
		if tail == 0 {
			s.setWord(obj, listTail, uint64(node))
		}
	} else {
		s.setWord(node, nodePrev, tail)
		s.setWord(node, nodeNext, 0)
		if tail != 0 {
			s.setWord(addr.VA(tail), nodeNext, uint64(node))
		}
		s.setWord(obj, listTail, uint64(node))
		if head == 0 {
			s.setWord(obj, listHead, uint64(node))
		}
	}
	n := s.word(obj, listLen) + 1
	s.setWord(obj, listLen, n)
	return n, s.e.Err()
}

// LPop removes and returns the head value (nil on empty).
func (s *Server) LPop(key string) ([]byte, error) { return s.pop(key, true) }

// RPop removes and returns the tail value (nil on empty).
func (s *Server) RPop(key string) ([]byte, error) { return s.pop(key, false) }

func (s *Server) pop(key string, left bool) ([]byte, error) {
	obj := s.value(key)
	if obj == 0 {
		return nil, s.e.Err()
	}
	end := listTail
	if left {
		end = listHead
	}
	node := addr.VA(s.word(obj, end))
	if node == 0 {
		return nil, s.e.Err()
	}
	valPtr := s.word(node, nodeVal)
	next := s.word(node, nodeNext)
	prev := s.word(node, nodePrev)
	if left {
		s.setWord(obj, listHead, next)
		if next != 0 {
			s.setWord(addr.VA(next), nodePrev, 0)
		} else {
			s.setWord(obj, listTail, 0)
		}
	} else {
		s.setWord(obj, listTail, prev)
		if prev != 0 {
			s.setWord(addr.VA(prev), nodeNext, 0)
		} else {
			s.setWord(obj, listHead, 0)
		}
	}
	if n := s.word(obj, listLen); n > 0 {
		s.setWord(obj, listLen, n-1)
	}
	return s.loadBlob(addr.VA(valPtr)), s.e.Err()
}

// LLen returns the list length.
func (s *Server) LLen(key string) (uint64, error) {
	obj := s.value(key)
	if obj == 0 {
		return 0, s.e.Err()
	}
	return s.word(obj, listLen), s.e.Err()
}

// LRange returns elements [start, stop] walking the linked list — the
// LRANGE_100..600 commands of the benchmark, whose cost grows with the
// walk length (each node is a dependent pointer chase in simulated
// memory).
func (s *Server) LRange(key string, start, stop int) ([][]byte, error) {
	if start < 0 || stop < start {
		return nil, fmt.Errorf("miniredis: bad range [%d,%d]", start, stop)
	}
	obj := s.value(key)
	if obj == 0 {
		return nil, s.e.Err()
	}
	var out [][]byte
	cur := s.word(obj, listHead)
	for i := 0; cur != 0 && i <= stop; i++ {
		node := addr.VA(cur)
		if i >= start {
			out = append(out, s.loadBlob(addr.VA(s.word(node, nodeVal))))
		}
		cur = s.word(node, nodeNext)
	}
	return out, s.e.Err()
}
