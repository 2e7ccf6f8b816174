package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// Enc builds the canonical byte encoding of a whole configuration for
// whole-result memoization (KindHolistic, KindTopology). It is a plain
// append-only buffer: the composition layers walk their configuration
// in a fixed traversal order, writing every field that can influence
// the result — names included, because they surface verbatim in the
// reports. Obtain one from GetEnc and return it with PutEnc so the
// buffer is reused across invocations.
//
// Variable-length fields (strings) are length-prefixed and the
// traversal emits collection lengths, so distinct configurations can
// never share an encoding.
type Enc struct {
	buf []byte
}

var encPool = sync.Pool{New: func() any { return new(Enc) }}

// GetEnc returns an empty encoder from the pool.
func GetEnc() *Enc {
	e := encPool.Get().(*Enc)
	e.buf = e.buf[:0]
	return e
}

// PutEnc returns an encoder to the pool.
func PutEnc(e *Enc) {
	encPool.Put(e)
}

// Byte appends one raw byte.
func (e *Enc) Byte(b byte) { e.buf = append(e.buf, b) }

// Word appends one 64-bit word, little-endian.
func (e *Enc) Word(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Ticks appends one time value.
func (e *Enc) Ticks(t Ticks) { e.Word(uint64(t)) }

// Int appends one integer (lengths, iteration caps, enums).
func (e *Enc) Int(v int) { e.Word(uint64(int64(v))) }

// Bool appends one flag.
func (e *Enc) Bool(b bool) { e.buf = append(e.buf, flag(b)) }

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Word(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// EncKey is the content address of kind and an encoded configuration.
// The version and kind prefix mirrors the stream-set key layout, so the
// two key families share one table without colliding.
func EncKey(kind Kind, e *Enc) Key {
	h := sha256.New()
	h.Write([]byte{keyVersion, byte(kind)})
	h.Write(e.buf)
	var k Key
	h.Sum(k[:0])
	return k
}
