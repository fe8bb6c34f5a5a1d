package hierarchy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// armor appends what Encode puts after a frame body: the keyed digest
// and the CRC over body+digest. Seeds built with it pass the CRC, so the
// fuzzer starts past the armor at the structural checks behind it.
func armor(body []byte, key uint64) []byte {
	b := append([]byte(nil), body...)
	b = binary.BigEndian.AppendUint32(b, brokerDigester.Sum32(key, b))
	return binary.BigEndian.AppendUint32(b, brokerCRC.Sum32(frameCRCKey, b))
}

// frameFromBytes reads a frame's fields from b in wire order, zero past
// the end, with the type folded into the valid range and each name cut
// to maxNameLen, so every input is a frame Encode accepts.
func frameFromBytes(b []byte) *Frame {
	next := func(n int) uint64 {
		var v uint64
		for i := 0; i < n; i++ {
			v <<= 8
			if len(b) > 0 {
				v |= uint64(b[0])
				b = b[1:]
			}
		}
		return v
	}
	name := func() string {
		n := min(int(next(1))%(maxNameLen+1), len(b))
		s := string(b[:n])
		b = b[n:]
		return s
	}
	return &Frame{
		Type:  TGrantReq + uint8(next(1))%TRefuse,
		Pod:   uint8(next(1)),
		Hint:  uint8(next(1)),
		Seq:   uint32(next(4)),
		Epoch: next(8),
		Grant: next(8),
		PK:    next(8),
		Salt:  uint32(next(4)),
		Ver:   uint8(next(1)),
		PA:    uint16(next(2)),
		PB:    uint16(next(2)),
		A:     name(),
		B:     name(),
	}
}

// FuzzDecodeBrokerFrame holds the PABR broker frame codec to three
// properties. Decode never panics and rejects only with ErrTorn. A wire
// image it accepts re-encodes, under any key, to the same bytes but the
// 8-byte digest+CRC trailer, and to exactly the same bytes under a key
// its digest verifies with. Encode -> Decode round-trips every field of
// a frame built from the same input, and the result verifies under the
// signing key.
func FuzzDecodeBrokerFrame(f *testing.F) {
	const key = 0x5EED
	// One frame of every type, shaped like its call site.
	for _, fr := range []*Frame{
		{Type: TGrantReq, Pod: 1, Seq: 1, A: "a1_0", PA: 3, B: "c0", PB: 2},
		{Type: TGrantOK, Pod: GlobalPod, Seq: 1, Epoch: 1, Grant: 7, A: "a1_0", PA: 3, B: "c0", PB: 2},
		sampleFrame(),
		{Type: TExchOK, Pod: GlobalPod, Seq: 77, Epoch: 9, Grant: 41, PK: 0xFEED, Salt: 0x55AA, Ver: 3},
		{Type: TRelayReq, Pod: GlobalPod, Seq: 5, Epoch: 9, Grant: 41, PK: 0xDEADBEEFCAFE, Salt: 0x1234ABCD,
			Ver: 3, A: "a2_1", PA: 4, B: "c3", PB: 3},
		{Type: TRelayOK, Pod: 3, Seq: 5, Epoch: 9, Grant: 41, PK: 0xFEED, Salt: 0x55AA, Ver: 3},
		{Type: TRefuse, Pod: 3, Hint: RefuseSkew, Seq: 5, Ver: 4},
		{Type: TRefuse, Pod: GlobalPod, Hint: RefuseEpoch, Seq: ^uint32(0), Ver: 255},
		{Type: TExchReq, Pod: 254, Seq: ^uint32(0), Epoch: ^uint64(0), Grant: ^uint64(0), PK: ^uint64(0),
			Salt: ^uint32(0), Ver: 255, A: string(make([]byte, maxNameLen)), PA: ^uint16(0),
			B: string(bytes.Repeat([]byte{0xFF}, maxNameLen)), PB: ^uint16(0)},
	} {
		b, err := fr.Encode(key)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, uint64(key))
		f.Add(b, uint64(0xBAD)) // decodes, re-signs under another key
	}

	good, err := sampleFrame().Encode(key)
	if err != nil {
		f.Fatal(err)
	}
	body := good[:len(good)-8]
	nameAt := 45 // the A length byte
	torn := append([]byte(nil), good...)
	torn[12] ^= 0x10
	overlong := append(append(append([]byte(nil), body[:nameAt]...), maxNameLen+1), bytes.Repeat([]byte{'x'}, maxNameLen+1)...)
	overlong = append(overlong, 0)
	pastEnd := append(append([]byte(nil), body[:nameAt]...), 40, 'a')
	trailing := append(append([]byte(nil), body...), 0)
	badType := append([]byte(nil), body...)
	badType[5] = TRefuse + 1
	badMagic := append([]byte(nil), body...)
	badMagic[0] ^= 1
	for _, b := range [][]byte{
		nil,
		{},
		good[:10],
		good[:len(good)-1],
		append(append([]byte(nil), good...), 0),
		torn,
		make([]byte, 256),
		armor(overlong, key),
		armor(pastEnd, key),
		armor(trailing, key),
		armor(badType, key),
		armor(badMagic, key),
		armor(body[:nameAt], key),
	} {
		f.Add(b, uint64(key))
	}

	f.Fuzz(func(t *testing.T, data []byte, key uint64) {
		if fr, err := Decode(data); err != nil {
			if !errors.Is(err, ErrTorn) {
				t.Fatalf("Decode: %v, want ErrTorn", err)
			}
		} else {
			enc, err := fr.Encode(key)
			if err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			n := len(data) - 8
			if len(enc) != len(data) || !bytes.Equal(enc[:n], data[:n]) {
				t.Fatalf("re-encoding differs before the trailer:\n  in  %x\n  out %x", data, enc)
			}
			if fr.Verify(key) && !bytes.Equal(enc, data) {
				t.Fatalf("verified frame re-encodes to other bytes under its key:\n  in  %x\n  out %x", data, enc)
			}
		}

		in := frameFromBytes(data)
		enc, err := in.Encode(key)
		if err != nil {
			t.Fatalf("Encode %+v: %v", in, err)
		}
		out, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)): %v", in, err)
		}
		if !out.Verify(key) {
			t.Fatalf("encoded frame fails Verify under its own key")
		}
		out.digest, out.signed = 0, nil
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed the frame:\n  %+v\n  %+v", in, out)
		}
	})
}
