package obs

import (
	"bytes"
	"math"

	"hpmp/internal/addr"
)

// decodeEventLine decodes one event line spelled as WriteTrace writes it:
// eventJSON's fields in declaration order (tlb and fault may be left out),
// no whitespace, strings without escapes, numbers without a leading zero,
// fraction or exponent, and addresses as lowercase 0x hex without a
// leading zero. It reports false for any other line, and ReadTrace then
// decodes that line through encoding/json and fromJSON. It accepts only
// lines that encoding/json decodes to the same Event, so the inputs
// ReadTrace accepts, the events it returns and its error messages are
// those of the encoding/json path alone; FuzzReadTrace checks that line by
// line.
//
// The daemon-mix benchmark regresses without it: each replay job uploads
// a trace that the daemon parses inside the submit→done window, and
// through encoding/json alone that parse took longer than the replay.
func decodeEventLine(line []byte) (Event, bool) {
	d := lineDecoder{rest: line, ok: true}
	var ev Event
	var found bool
	d.lit(`{"seq":`)
	ev.Seq = d.uint(math.MaxUint64)
	d.lit(`,"kind":`)
	ev.Kind, found = KindFromString(string(d.str()))
	d.need(found)
	d.lit(`,"access":`)
	ev.Access, found = accessFromString(string(d.str()))
	d.need(found)
	if d.opt(`,"tlb":`) {
		ev.TLB, found = TLBPathFromString(string(d.str()))
		d.need(found)
	}
	d.lit(`,"level":`)
	ev.Level = d.int8()
	d.lit(`,"hit":`)
	if ev.Hit = d.opt("true"); !ev.Hit {
		d.lit("false")
	}
	if d.opt(`,"fault":`) {
		ev.Fault, found = FaultFromString(string(d.str()))
		d.need(found)
	}
	d.lit(`,"va":`)
	ev.VA = addr.VA(d.hex())
	d.lit(`,"pa":`)
	ev.PA = addr.PA(d.hex())
	d.lit(`,"refs":`)
	ev.Refs = uint16(d.uint(math.MaxUint16))
	d.lit(`,"chk_refs":`)
	ev.ChkRefs = uint16(d.uint(math.MaxUint16))
	d.lit(`,"cycles":`)
	ev.Cycles = d.uint(math.MaxUint64)
	d.lit("}")
	return ev, d.ok && len(d.rest) == 0
}

// lineDecoder is a cursor over one event line. ok turns false at the first
// byte outside the canonical form and stays false; every step after that
// consumes nothing.
type lineDecoder struct {
	rest []byte
	ok   bool
}

// opt consumes s if the line continues with it and reports whether it did.
func (d *lineDecoder) opt(s string) bool {
	if d.ok && len(d.rest) >= len(s) && string(d.rest[:len(s)]) == s {
		d.rest = d.rest[len(s):]
		return true
	}
	return false
}

// lit consumes s, which the line must continue with.
func (d *lineDecoder) lit(s string) {
	d.need(d.opt(s))
}

// need rejects the line unless cond holds.
func (d *lineDecoder) need(cond bool) {
	d.ok = d.ok && cond
}

// uint consumes an unsigned decimal of at most max.
func (d *lineDecoder) uint(max uint64) uint64 {
	if !d.ok {
		return 0
	}
	lim, last := max/10, max%10
	var v uint64
	n := 0
	for ; n < len(d.rest) && '0' <= d.rest[n] && d.rest[n] <= '9'; n++ {
		c := uint64(d.rest[n] - '0')
		if (n == 1 && v == 0) || v > lim || (v == lim && c > last) {
			d.ok = false // leading zero or out of range
			return 0
		}
		v = v*10 + c
	}
	if n == 0 {
		d.ok = false
	}
	d.rest = d.rest[n:]
	return v
}

// int8 consumes a signed decimal in int8's range; it rejects "-0".
func (d *lineDecoder) int8() int8 {
	if d.opt("-") {
		v := d.uint(-math.MinInt8)
		if v == 0 {
			d.ok = false
		}
		return int8(-int(v))
	}
	return int8(d.uint(math.MaxInt8))
}

// str consumes a JSON string and returns its bytes, up to the first quote.
// The form has no escapes: a backslash in the result never matches an
// enum name or a hex digit, so a string with an escape is rejected.
func (d *lineDecoder) str() []byte {
	d.lit(`"`)
	if d.ok {
		if q := bytes.IndexByte(d.rest, '"'); q >= 0 {
			s := d.rest[:q]
			d.rest = d.rest[q+1:]
			return s
		}
		d.ok = false
	}
	return nil
}

// hex consumes a quoted address: "0x" and 1 to 16 lowercase hex digits
// without a leading zero.
func (d *lineDecoder) hex() uint64 {
	s := d.str()
	if len(s) < 3 || len(s) > 18 || s[0] != '0' || s[1] != 'x' || s[2] == '0' && len(s) > 3 {
		d.ok = false
		return 0
	}
	var v uint64
	for _, c := range s[2:] {
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			d.ok = false
			return 0
		}
	}
	return v
}
