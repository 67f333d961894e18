package serial

import "fmt"

// rawCodec is "serialization completely disabled": the payload bytes are
// stored verbatim with no header at all. Type and dimensions must be carried
// by out-of-band metadata (pMEMCPY's key-value entries do exactly that), so
// Decode requires a hint. This is the closest analogue to a literal memcpy
// and the cheapest configuration in the serializer ablation.
type rawCodec struct{}

func init() { Register(rawCodec{}) }

func (rawCodec) Name() string                    { return "raw" }
func (rawCodec) SelfDescribing() bool            { return false }
func (rawCodec) CostProfile() (float64, float64) { return 0.60, 0.60 }
func (rawCodec) IdentityEncode() bool            { return true }

func (rawCodec) EncodedSize(d *Datum) int { return len(d.Payload) }

func (c rawCodec) EncodeTo(dst []byte, d *Datum) (int, error) {
	return dropSum(encode(c, dst, d, 0, false))
}

func (c rawCodec) EncodeSum(dst []byte, d *Datum, crc uint32) (int, uint32, error) {
	return encode(c, dst, d, crc, true)
}

func (rawCodec) header([]byte, *Datum) (int, []byte) { return 0, nil }

func (c rawCodec) Decode(src []byte, hint *Datum) (*Datum, error) { return decodeNew(c, src, hint) }

// DecodeTo takes type and dims from the hint d carries: the payload is all
// there is.
func (rawCodec) DecodeTo(src []byte, d *Datum) error {
	if !d.Type.Valid() {
		return fmt.Errorf("%w: raw codec requires a type hint", ErrBadDatum)
	}
	d.Payload = src
	if d.Type.Fixed() {
		want := d.Elems() * uint64(d.Type.Size())
		if uint64(len(src)) < want {
			return ErrTruncated
		}
		d.Payload = src[:want:want]
	}
	return d.Validate()
}
