package prince

// Table-driven fast path (the AES T-table construction). The S-box acts on
// single nibbles, and M', ShiftRows and the key additions are linear over
// GF(2), so every layer between two S-box applications is an XOR of 16
// rows, one per input nibble, of a [16][16]uint64 table. The five tables
// take 10 KiB together and stay L1-resident. They are built from the
// reference functions in prince.go, which remain the specification;
// TestFastMatchesReference cross-checks the two paths and the official
// vectors pin both down.
//
// The inverse half is carried in the state just before each S^-1:
// t' = M'(SR^-1(S^-1(t) ^ c)) = inv(t) ^ lin(c), with lin = M'∘SR^-1.
var (
	fwdTab nibbleTab // SR∘M'∘S: rounds 1-5
	midTab nibbleTab // M'∘S: the middle, up to its S^-1
	invTab nibbleTab // M'∘SR^-1∘S^-1: rounds 6-10
	outTab nibbleTab // S^-1: the output S-box layer
	linTab nibbleTab // M'∘SR^-1, linear: carries rc[i]^k1 across the inverse half
	// linRC[i] = lin(rc[i]) for the inverse rounds 6-10.
	linRC [11]uint64
)

// nibbleTab[j][v] is a layer's output for input nibble j (bits 4j..4j+3,
// j = 0 least significant) set to v.
type nibbleTab [16][16]uint64

func initFast() {
	for j := 0; j < 16; j++ {
		sh := uint(4 * j)
		for v := uint64(0); v < 16; v++ {
			s, si := sbox[v]<<sh, sboxInv[v]<<sh
			fwdTab[j][v] = permuteNibbles(mPrime(s), &srPerm)
			midTab[j][v] = mPrime(s)
			invTab[j][v] = mPrime(permuteNibbles(si, &srInv))
			outTab[j][v] = si
			linTab[j][v] = mPrime(permuteNibbles(v<<sh, &srInv))
		}
	}
	for i := 6; i <= 10; i++ {
		linRC[i] = mPrime(permuteNibbles(rc[i], &srInv))
	}
}

// apply evaluates the layer t on x: the XOR of one row per nibble.
func (t *nibbleTab) apply(x uint64) uint64 {
	return t[0][x&0xF] ^ t[1][x>>4&0xF] ^ t[2][x>>8&0xF] ^ t[3][x>>12&0xF] ^
		t[4][x>>16&0xF] ^ t[5][x>>20&0xF] ^ t[6][x>>24&0xF] ^ t[7][x>>28&0xF] ^
		t[8][x>>32&0xF] ^ t[9][x>>36&0xF] ^ t[10][x>>40&0xF] ^ t[11][x>>44&0xF] ^
		t[12][x>>48&0xF] ^ t[13][x>>52&0xF] ^ t[14][x>>56&0xF] ^ t[15][x>>60]
}

// fastCore is the table-driven PRINCE-core.
func fastCore(s, k1 uint64) uint64 {
	s ^= k1 ^ rc[0]
	for i := 1; i <= 5; i++ {
		s = fwdTab.apply(s) ^ rc[i] ^ k1
	}
	s = midTab.apply(s)
	lk := linTab.apply(k1)
	for i := 6; i <= 10; i++ {
		s = invTab.apply(s) ^ linRC[i] ^ lk
	}
	return outTab.apply(s) ^ rc[11] ^ k1
}
