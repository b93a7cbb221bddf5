package msr

import "testing"

// FuzzPerfCtl checks the IA32_PERF_CTL (0x199) encode/decode pair
// from both directions: the requested core ratio round-trips through
// bits 15:8 modulo the 8-bit field mask, and arbitrary raw register
// values round-trip exactly once the first decode has dropped the
// reserved bits.
func FuzzPerfCtl(f *testing.F) {
	f.Add(uint64(24), uint64(0))
	f.Add(uint64(0xFF), uint64(0xFFFFFFFFFFFFFFFF))
	f.Add(uint64(0), uint64(0x199))
	f.Add(uint64(256), uint64(1<<63))
	f.Fuzz(func(t *testing.T, ratio, raw uint64) {
		enc := EncodePerfCtl(ratio)
		if enc&^uint64(0xFF00) != 0 {
			t.Fatalf("EncodePerfCtl(%#x) = %#x sets bits outside 15:8", ratio, enc)
		}
		if dec := DecodePerfCtl(enc); dec != ratio&0xFF {
			t.Fatalf("DecodePerfCtl(EncodePerfCtl(%#x)) = %#x, want %#x", ratio, dec, ratio&0xFF)
		}
		if re := EncodePerfCtl(DecodePerfCtl(enc)); re != enc {
			t.Fatalf("encode(decode(%#x)) = %#x, want fixed point", enc, re)
		}

		// Raw-register direction: decode drops reserved bits, after
		// which encode/decode is the identity.
		dr := DecodePerfCtl(raw)
		if dr > 0xFF {
			t.Fatalf("DecodePerfCtl(%#x) = %#x exceeds the 8-bit field", raw, dr)
		}
		canon := EncodePerfCtl(dr)
		if canon != raw&0xFF00 {
			t.Fatalf("EncodePerfCtl(DecodePerfCtl(%#x)) = %#x, want %#x", raw, canon, raw&0xFF00)
		}
		if dr2 := DecodePerfCtl(canon); dr2 != dr {
			t.Fatalf("DecodePerfCtl(%#x) = %#x, want %#x", canon, dr2, dr)
		}
	})
}

// FuzzUncorePerfStatus checks the MSR 0x621 (UNCORE_PERF_STATUS)
// encode/decode pair from both directions: the current uncore ratio
// round-trips through bits 6:0 modulo the 7-bit field mask, and
// arbitrary raw register values round-trip exactly once the first
// decode has dropped the reserved bits.
func FuzzUncorePerfStatus(f *testing.F) {
	f.Add(uint64(24), uint64(0))
	f.Add(uint64(0x7F), uint64(0xFFFFFFFFFFFFFFFF))
	f.Add(uint64(0), uint64(0x621))
	f.Add(uint64(128), uint64(0x1800))
	f.Fuzz(func(t *testing.T, ratio, raw uint64) {
		enc := EncodeUncorePerfStatus(ratio)
		if enc&^uint64(0x7F) != 0 {
			t.Fatalf("EncodeUncorePerfStatus(%#x) = %#x sets bits outside 6:0", ratio, enc)
		}
		if dec := DecodeUncorePerfStatus(enc); dec != ratio&0x7F {
			t.Fatalf("DecodeUncorePerfStatus(EncodeUncorePerfStatus(%#x)) = %#x, want %#x", ratio, dec, ratio&0x7F)
		}

		// Raw-register direction: decode drops reserved bits, after
		// which encode/decode is the identity.
		if canon := EncodeUncorePerfStatus(DecodeUncorePerfStatus(raw)); canon != raw&0x7F {
			t.Fatalf("EncodeUncorePerfStatus(DecodeUncorePerfStatus(%#x)) = %#x, want %#x", raw, canon, raw&0x7F)
		}
	})
}

// FuzzUncoreRatioLimit checks the MSR 0x620 (UNCORE_RATIO_LIMIT)
// encode/decode pair from both directions: fields round-trip through
// the register layout modulo the 7-bit field masks, and arbitrary raw
// register values round-trip exactly once the reserved bits are
// cleared by the first decode.
func FuzzUncoreRatioLimit(f *testing.F) {
	f.Add(uint64(24), uint64(12), uint64(0))
	f.Add(uint64(0x7F), uint64(0x7F), uint64(0xFFFFFFFFFFFFFFFF))
	f.Add(uint64(0), uint64(0), uint64(0x620))
	f.Add(uint64(128), uint64(255), uint64(1<<63))
	f.Fuzz(func(t *testing.T, maxRatio, minRatio, raw uint64) {
		enc := EncodeUncoreRatioLimit(UncoreRatioLimit{MaxRatio: maxRatio, MinRatio: minRatio})
		if enc&^uint64(0x7F7F) != 0 {
			t.Fatalf("encode(max=%#x,min=%#x) = %#x sets bits outside 14:8 and 6:0", maxRatio, minRatio, enc)
		}
		dec := DecodeUncoreRatioLimit(enc)
		if dec.MaxRatio != maxRatio&0x7F || dec.MinRatio != minRatio&0x7F {
			t.Fatalf("decode(encode(max=%#x,min=%#x)) = %+v, want masked inputs", maxRatio, minRatio, dec)
		}
		if re := EncodeUncoreRatioLimit(dec); re != enc {
			t.Fatalf("encode(decode(%#x)) = %#x, want fixed point", enc, re)
		}

		// Raw-register direction: decode drops reserved bits, after
		// which encode/decode is the identity.
		dr := DecodeUncoreRatioLimit(raw)
		if dr.MaxRatio > 0x7F || dr.MinRatio > 0x7F {
			t.Fatalf("decode(%#x) = %+v exceeds 7-bit fields", raw, dr)
		}
		canon := EncodeUncoreRatioLimit(dr)
		if canon != raw&0x7F7F {
			t.Fatalf("encode(decode(%#x)) = %#x, want %#x", raw, canon, raw&0x7F7F)
		}
		if dr2 := DecodeUncoreRatioLimit(canon); dr2 != dr {
			t.Fatalf("decode(%#x) = %+v, want %+v", canon, dr2, dr)
		}
	})
}
