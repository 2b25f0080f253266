package wire

import "errors"

// gobInterface is the type id gob gives the interface type on every
// stream: its eighth built-in type, after bool, int, uint, float, bytes,
// string and complex.
const gobInterface = 8

var (
	errInterface = errors.New("wire: control payload refers to an interface type")
	errBadType   = errors.New("wire: control payload defines a type that does not parse")
)

// scanControl walks the gob messages of one control payload before the
// decoder sees it. Each message is a byte count and a signed type id,
// negative when the message defines that type and positive when it
// carries a value of it. It returns how many messages define a type, and
// an error when a definition, or the value itself, refers to gob's
// interface type: an interface value carries its concrete type's
// definition inside the value, and gob accepts one even while skipping a
// field the receiver does not have, so such a type would let a peer grow
// the decoder past any count of messages. No control message of either
// protocol has an interface field. Counting stops at the first malformed
// message header, past which the decoder cannot read either; a definition
// this scan cannot parse is refused.
func scanControl(p []byte) (defs int, err error) {
	for len(p) > 0 {
		size, k := gobUint(p)
		if k == 0 || size > uint64(len(p)-k) {
			break
		}
		s := gobScan{p: p[k : k+int(size)]}
		p = p[k+int(size):]
		id := s.int()
		if id == gobInterface {
			return defs, errInterface
		}
		if id >= 0 {
			continue
		}
		defs++
		if s.wireType() {
			return defs, errInterface
		}
		if s.bad {
			return defs, errBadType
		}
	}
	return defs, nil
}

// gobUint decodes gob's unsigned integer at the head of p: one byte below
// 0x80, or the negated count of big-endian bytes that follow. It returns
// the value and the bytes it took, 0 when p does not hold one.
func gobUint(p []byte) (uint64, int) {
	if len(p) == 0 {
		return 0, 0
	}
	if p[0] < 0x80 {
		return uint64(p[0]), 1
	}
	n := -int(int8(p[0]))
	if n > 8 || len(p) < 1+n {
		return 0, 0
	}
	var x uint64
	for _, b := range p[1 : 1+n] {
		x = x<<8 | uint64(b)
	}
	return x, 1 + n
}

// gobScan reads the parts of gob's encoding a type definition is made of;
// bad records that the input ended or did not parse.
type gobScan struct {
	p   []byte
	bad bool
}

func (s *gobScan) uint() uint64 {
	x, n := gobUint(s.p)
	if n == 0 {
		s.bad = true
	}
	s.p = s.p[n:]
	return x
}

// int reads a signed integer: gob stores it shifted left one bit, with the
// complement taken and the low bit set when it is negative.
func (s *gobScan) int() int64 {
	u := s.uint()
	if u&1 != 0 {
		return ^int64(u >> 1)
	}
	return int64(u >> 1)
}

// skip passes over a string.
func (s *gobScan) skip() {
	if n := s.uint(); n <= uint64(len(s.p)) {
		s.p = s.p[n:]
	} else {
		s.bad = true
	}
}

// fields calls f with the number of each field of the struct at the head
// of s, which gob sends as deltas from the previous field and ends with a
// zero; f reads the field's value.
func (s *gobScan) fields(f func(field int)) {
	for field := -1; !s.bad; {
		d := s.uint()
		if d == 0 {
			return
		}
		if d > 8 { // no struct of a definition has more fields
			s.bad = true
			return
		}
		field += int(d)
		f(field)
	}
}

// wireType reads one gob type definition — gob's wireType: an array,
// slice, struct, map or GobEncoder-family type, each with a name and id —
// and reports whether it refers to the interface type.
func (s *gobScan) wireType() (iface bool) {
	ref := func() {
		if s.int() == gobInterface {
			iface = true
		}
	}
	named := func(f int) { // CommonType{Name, Id}
		switch f {
		case 0:
			s.skip()
		case 1:
			s.int()
		default:
			s.bad = true
		}
	}
	s.fields(func(kind int) {
		s.fields(func(f int) {
			switch {
			case f == 0:
				s.fields(named)
			case f == 1 && (kind == 0 || kind == 1 || kind == 3): // array, slice Elem; map Key
				ref()
			case f == 2 && kind == 0: // array Len
				s.int()
			case f == 2 && kind == 3: // map Elem
				ref()
			case f == 1 && kind == 2: // struct fields: []fieldType{Name, Id}
				for n := s.uint(); n > 0 && !s.bad; n-- {
					s.fields(func(f int) {
						if f == 1 {
							ref()
						} else {
							named(f) // the Name, as in CommonType
						}
					})
				}
			default:
				s.bad = true
			}
		})
	})
	return iface
}
