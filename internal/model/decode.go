package model

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/etransform/etransform/internal/geo"
	"github.com/etransform/etransform/internal/stepwise"
)

// This file decodes an AsIsState from JSON in one pass, without
// reflection. It accepts exactly the documents that encoding/json accepts
// when it decodes into AsIsState with DisallowUnknownFields (stepwise's
// unmarshalers are as strict at their own level) and builds a state
// reflect.DeepEqual to the one encoding/json builds, so the two are
// interchangeable; the one intended difference is that anything but
// whitespace after the state object is an error. encoding/json remains
// the writer and the reference the tests hold this decoder to.
//
// The decoder keeps encoding/json's rules where they are observable:
//
//   - a key matches a field name exactly or, failing that, under Unicode
//     case folding (strings.EqualFold); escaped keys match by their
//     unescaped text; a key matching no field is an error;
//   - a repeated key decodes again into the same value: the last scalar
//     wins, a repeated object merges into its struct, and a repeated
//     array decodes its elements into the slice's existing elements
//     (see decodeArray);
//   - null leaves a scalar or a struct unchanged and sets a slice to nil;
//     for a space curve or a latency penalty it builds an empty one,
//     because encoding/json hands null to stepwise's UnmarshalJSON;
//   - [] is an empty, non-nil slice;
//   - numbers follow the JSON grammar; floats go through
//     strconv.ParseFloat, so an out-of-range literal is an error, and int
//     fields take only literals strconv.ParseInt accepts;
//   - strings may hold any escape; lone surrogates and invalid UTF-8
//     become U+FFFD, and raw control characters are an error.
//
// A segment's width is an `any` in stepwise's JSON form, so it is the one
// field that takes a value of any shape; the curve rejects every width
// but a number or "inf" once its object is read. Everything else must
// fit the schema at its first byte, so the decoder never skips a value
// it does not know and never recurses deeper than the schema; a width's
// nested value is read without recursion, under encoding/json's nesting
// limit.

// maxDepth is encoding/json's limit on nested objects and arrays, the
// state object included.
const maxDepth = 10000

// decoder is the read position in one JSON document.
type decoder struct {
	data  []byte
	pos   int
	depth int    // objects and arrays open at pos
	buf   []byte // unescaped text of the last string read through it
}

// decodeError is a decode failure at a byte offset of the document,
// naming the field path that leads to it.
type decodeError struct {
	off  int
	path []string // innermost element first
	err  error
}

func (e *decodeError) Error() string {
	var b strings.Builder
	for i := len(e.path) - 1; i >= 0; i-- {
		if b.Len() > 0 && e.path[i][0] != '[' {
			b.WriteByte('.')
		}
		b.WriteString(e.path[i])
	}
	if b.Len() == 0 {
		return fmt.Sprintf("offset %d: %v", e.off, e.err)
	}
	return fmt.Sprintf("%s (offset %d): %v", b.String(), e.off, e.err)
}

func (e *decodeError) Unwrap() error { return e.err }

// within adds the field or element an error came out of to its path.
func within(err error, elem string) error {
	if de, ok := err.(*decodeError); ok {
		de.path = append(de.path, elem)
	}
	return err
}

func errorAt(off int, format string, args ...any) error {
	return &decodeError{off: off, err: fmt.Errorf(format, args...)}
}

// unexpected reports the byte at the read position, which is not the
// one wanted.
func (d *decoder) unexpected(want string) error {
	if d.pos >= len(d.data) {
		return errorAt(d.pos, "unexpected end of input, want %s", want)
	}
	return errorAt(d.pos, "unexpected %q, want %s", d.data[d.pos:d.pos+1], want)
}

// peek skips whitespace and returns the next byte, or 0 at the end of
// the input.
func (d *decoder) peek() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal consumes lit if the input continues with it.
func (d *decoder) literal(lit string) bool {
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// null skips whitespace and consumes a null literal if one comes next.
func (d *decoder) null() bool {
	return d.peek() == 'n' && d.literal("null")
}

// open consumes the opening bracket of an object or array.
func (d *decoder) open(c byte) error {
	if d.peek() != c {
		return d.unexpected(fmt.Sprintf("%q", c))
	}
	d.pos++
	d.depth++
	return nil
}

// next consumes the ',' between members or elements, or the closing
// bracket, and reports whether another member or element follows.
func (d *decoder) next(closing byte) (bool, error) {
	switch d.peek() {
	case ',':
		d.pos++
		return true, nil
	case closing:
		d.pos++
		d.depth--
		return false, nil
	}
	return false, d.unexpected(fmt.Sprintf("',' or %q", closing))
}

// empty consumes the closing bracket if the object or array just opened
// has no members.
func (d *decoder) empty(closing byte) bool {
	if d.peek() != closing {
		return false
	}
	d.pos++
	d.depth--
	return true
}

// field is one JSON key of a struct and the decoder of its value.
type field[T any] struct {
	name   string
	decode func(d *decoder, v *T) error
}

// decodeObject decodes a JSON object into *v, each member through the
// field its key names; null leaves *v unchanged.
func decodeObject[T any](d *decoder, v *T, fields []field[T]) error {
	if d.null() {
		return nil
	}
	if err := d.open('{'); err != nil {
		return err
	}
	if d.empty('}') {
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.unexpected("a string key")
		}
		off := d.pos
		key, err := d.quoted()
		if err != nil {
			return err
		}
		f := matchField(key, fields)
		if f == nil {
			return errorAt(off, "unknown field %q", key)
		}
		if d.peek() != ':' {
			return d.unexpected("':'")
		}
		d.pos++
		if err := f.decode(d, v); err != nil {
			return within(err, f.name)
		}
		if more, err := d.next('}'); !more {
			return err
		}
	}
}

// matchField returns the field key names: the one named exactly, else
// the first equal under Unicode case folding, as encoding/json matches
// keys; nil when none does.
func matchField[T any](key []byte, fields []field[T]) *field[T] {
	for i := range fields {
		if string(key) == fields[i].name {
			return &fields[i]
		}
	}
	for i := range fields {
		if strings.EqualFold(string(key), fields[i].name) {
			return &fields[i]
		}
	}
	return nil
}

// decodeArray decodes a JSON array into *dst as encoding/json decodes
// into a slice: element i decodes into the slice's existing element i
// while i is below its capacity, so a repeated key merges into what an
// earlier array left there, and past it into a zero element; the result
// has one element per array element. null sets *dst to nil and []
// to an empty, non-nil slice.
func decodeArray[T any](d *decoder, dst *[]T, elem func(d *decoder, v *T) error) error {
	if d.null() {
		*dst = nil
		return nil
	}
	if err := d.open('['); err != nil {
		return err
	}
	if d.empty(']') {
		*dst = []T{}
		return nil
	}
	s := (*dst)[:0]
	for i := 0; ; i++ {
		if i < cap(s) {
			s = s[:i+1]
		} else {
			var zero T
			s = append(s, zero)
		}
		if err := elem(d, &s[i]); err != nil {
			return within(err, "["+strconv.Itoa(i)+"]")
		}
		more, err := d.next(']')
		if err != nil {
			return err
		}
		if !more {
			*dst = s
			return nil
		}
	}
}

// decodeString decodes a JSON string; null leaves *v unchanged.
func decodeString[S ~string](d *decoder, v *S) error {
	if d.null() {
		return nil
	}
	if d.peek() != '"' {
		return d.unexpected("a string")
	}
	b, err := d.quoted()
	if err != nil {
		return err
	}
	*v = S(b)
	return nil
}

// decodeFloat decodes a JSON number into a float64; null leaves *v
// unchanged.
func decodeFloat(d *decoder, v *float64) error {
	if d.null() {
		return nil
	}
	off := d.pos
	lit, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return errorAt(off, "number %s is out of range", lit)
	}
	*v = f
	return nil
}

// decodeInt decodes a JSON number into an int: a fraction, an exponent
// or a value the type cannot hold is an error. null leaves *v unchanged.
func decodeInt(d *decoder, v *int) error {
	if d.null() {
		return nil
	}
	off := d.pos
	lit, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return errorAt(off, "number %s does not fit an int", lit)
	}
	*v = int(n)
	return nil
}

// decodeBool decodes true or false; null leaves *v unchanged.
func decodeBool(d *decoder, v *bool) error {
	switch {
	case d.null():
	case d.literal("true"):
		*v = true
	case d.literal("false"):
		*v = false
	default:
		return d.unexpected("true or false")
	}
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number reads the number literal at the read position by the JSON
// grammar and returns its text.
func (d *decoder) number() ([]byte, error) {
	start := d.pos
	digits := func() {
		for d.pos < len(d.data) && isDigit(d.data[d.pos]) {
			d.pos++
		}
	}
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.data) && d.data[d.pos] == '0':
		d.pos++
	case d.pos < len(d.data) && isDigit(d.data[d.pos]):
		digits()
	default:
		return nil, d.unexpected("a number")
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if d.pos >= len(d.data) || !isDigit(d.data[d.pos]) {
			return nil, d.unexpected("a digit after the decimal point")
		}
		digits()
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if d.pos >= len(d.data) || !isDigit(d.data[d.pos]) {
			return nil, d.unexpected("a digit in the exponent")
		}
		digits()
	}
	return d.data[start:d.pos], nil
}

// quoted reads the string literal whose opening quote is at the read
// position and returns its text: a slice of the input when the literal
// holds no escape and is valid UTF-8, else d.buf, which the next call
// overwrites.
func (d *decoder) quoted() ([]byte, error) {
	d.pos++
	start := d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], nil
		case c == '\\':
			return d.unescape(start)
		case c < ' ':
			return nil, errorAt(d.pos, "control character %#02x in string", c)
		case c < utf8.RuneSelf:
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start)
			}
			d.pos += size
		}
	}
	return nil, d.unexpected("a closing quote")
}

// unescape finishes a string literal that starts at start and needs
// rewriting from the read position on, into d.buf.
func (d *decoder) unescape(start int) ([]byte, error) {
	b := append(d.buf[:0], d.data[start:d.pos]...)
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			d.buf = b
			return b, nil
		case c == '\\':
			if d.pos+1 >= len(d.data) {
				return nil, d.unexpected("a closing quote")
			}
			switch e := d.data[d.pos+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[d.pos:])
				if r < 0 {
					return nil, errorAt(d.pos, "invalid \\u escape")
				}
				d.pos += 6
				if utf16.IsSurrogate(r) {
					// A surrogate pair takes the next escape with it;
					// a lone surrogate becomes U+FFFD and leaves the
					// next escape to be read on its own.
					if pair := utf16.DecodeRune(r, hex4(d.data[d.pos:])); pair != unicode.ReplacementChar {
						r = pair
						d.pos += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return nil, errorAt(d.pos, "invalid escape %q", d.data[d.pos:d.pos+2])
			}
			d.pos += 2
		case c < ' ':
			return nil, errorAt(d.pos, "control character %#02x in string", c)
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			b = utf8.AppendRune(b, r) // an invalid byte becomes U+FFFD
			d.pos += size
		}
	}
	return nil, d.unexpected("a closing quote")
}

// hex4 returns the code unit of the \uXXXX escape s starts with, or -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skipValue reads one JSON value of any shape, as encoding/json checks a
// value it decodes into an `any`: the grammar, the nesting limit and the
// range of every number. It keeps its open objects and arrays on a stack
// of its own instead of recursing.
func (d *decoder) skipValue() error {
	var open []byte // closing bracket of each object or array open
	for {
		// A value starts here.
		switch c := d.peek(); {
		case c == '{' || c == '[':
			if d.depth+len(open) >= maxDepth {
				return errorAt(d.pos, "nesting exceeds %d levels", maxDepth)
			}
			d.pos++
			closing := byte(']')
			if c == '{' {
				closing = '}'
			}
			if d.peek() != closing {
				open = append(open, closing)
				if err := d.memberKey(closing); err != nil {
					return err
				}
				continue
			}
			d.pos++
		case c == '"':
			if _, err := d.quoted(); err != nil {
				return err
			}
		case c == '-' || isDigit(c):
			var f float64
			if err := decodeFloat(d, &f); err != nil {
				return err
			}
		case d.literal("true"), d.literal("false"), d.literal("null"):
		default:
			return d.unexpected("a value")
		}
		// A value ended: close every object or array it completes.
		for {
			if len(open) == 0 {
				return nil
			}
			closing := open[len(open)-1]
			c := d.peek()
			if c == ',' {
				d.pos++
				if err := d.memberKey(closing); err != nil {
					return err
				}
				break
			}
			if c != closing {
				return d.unexpected(fmt.Sprintf("',' or %q", closing))
			}
			d.pos++
			open = open[:len(open)-1]
		}
	}
}

// memberKey reads the key and colon that start an object member; in an
// array it reads nothing.
func (d *decoder) memberKey(closing byte) error {
	if closing != '}' {
		return nil
	}
	if d.peek() != '"' {
		return d.unexpected("a string key")
	}
	if _, err := d.quoted(); err != nil {
		return err
	}
	if d.peek() != ':' {
		return d.unexpected("':'")
	}
	d.pos++
	return nil
}

// segmentJSON is a curve segment as stepwise's JSON form holds it before
// the curve is built: the width is an `any` there, so it is kept as
// whether the last width read was a number or "inf", and its value.
type segmentJSON struct {
	width    float64
	widthOK  bool
	unitCost float64
}

var segmentFields = []field[segmentJSON]{
	{"width", func(d *decoder, s *segmentJSON) error {
		s.widthOK = false
		switch c := d.peek(); {
		case c == '"':
			w, err := d.quoted()
			if err != nil {
				return err
			}
			s.width, s.widthOK = math.Inf(1), string(w) == stepwise.InfiniteWidth
		case c == '-' || isDigit(c):
			if err := decodeFloat(d, &s.width); err != nil {
				return err
			}
			s.widthOK = true
		default:
			// null, a boolean, an object or an array: stepwise's
			// UnmarshalJSON rejects it unless a later width replaces it.
			return d.skipValue()
		}
		return nil
	}},
	{"unit_cost", func(d *decoder, s *segmentJSON) error { return decodeFloat(d, &s.unitCost) }},
}

var curveFields = []field[[]segmentJSON]{
	{"segments", func(d *decoder, segs *[]segmentJSON) error {
		return decodeArray(d, segs, func(d *decoder, s *segmentJSON) error { return decodeObject(d, s, segmentFields) })
	}},
}

// decodeCurve decodes a space curve through stepwise.NewCurve, as
// stepwise's UnmarshalJSON does: each occurrence starts from no segments,
// and null builds the empty curve.
func decodeCurve(d *decoder, c *stepwise.Curve) error {
	d.peek()
	off := d.pos
	var raw []segmentJSON
	if err := decodeObject(d, &raw, curveFields); err != nil {
		return err
	}
	segs := make([]stepwise.Segment, len(raw))
	for i, s := range raw {
		if !s.widthOK {
			return errorAt(off, "segment %d: width must be a number or %q", i, stepwise.InfiniteWidth)
		}
		segs[i] = stepwise.Segment{Width: s.width, UnitCost: s.unitCost}
	}
	parsed, err := stepwise.NewCurve(segs)
	if err != nil {
		return &decodeError{off: off, err: err}
	}
	*c = parsed
	return nil
}

var stepFields = []field[stepwise.PenaltyStep]{
	{"threshold_ms", func(d *decoder, s *stepwise.PenaltyStep) error { return decodeFloat(d, &s.ThresholdMs) }},
	{"penalty_per_user", func(d *decoder, s *stepwise.PenaltyStep) error { return decodeFloat(d, &s.PenaltyPerUser) }},
}

var penaltyFields = []field[[]stepwise.PenaltyStep]{
	{"steps", func(d *decoder, steps *[]stepwise.PenaltyStep) error {
		return decodeArray(d, steps, func(d *decoder, s *stepwise.PenaltyStep) error { return decodeObject(d, s, stepFields) })
	}},
}

// decodePenalty decodes a latency penalty through
// stepwise.NewLatencyPenalty, as stepwise's UnmarshalJSON does: each
// occurrence starts from no steps, and null builds the empty penalty.
func decodePenalty(d *decoder, p *stepwise.LatencyPenalty) error {
	d.peek()
	off := d.pos
	var steps []stepwise.PenaltyStep
	if err := decodeObject(d, &steps, penaltyFields); err != nil {
		return err
	}
	parsed, err := stepwise.NewLatencyPenalty(steps)
	if err != nil {
		return &decodeError{off: off, err: err}
	}
	*p = parsed
	return nil
}

var locationFields = []field[geo.Location]{
	{"id", func(d *decoder, l *geo.Location) error { return decodeString(d, &l.ID) }},
	{"name", func(d *decoder, l *geo.Location) error { return decodeString(d, &l.Name) }},
	{"lat_deg", func(d *decoder, l *geo.Location) error { return decodeFloat(d, &l.LatDeg) }},
	{"lon_deg", func(d *decoder, l *geo.Location) error { return decodeFloat(d, &l.LonDeg) }},
	{"region", func(d *decoder, l *geo.Location) error { return decodeString(d, &l.Region) }},
}

func decodeLocation(d *decoder, l *geo.Location) error { return decodeObject(d, l, locationFields) }

var groupFields = []field[AppGroup]{
	{"id", func(d *decoder, g *AppGroup) error { return decodeString(d, &g.ID) }},
	{"name", func(d *decoder, g *AppGroup) error { return decodeString(d, &g.Name) }},
	{"servers", func(d *decoder, g *AppGroup) error { return decodeInt(d, &g.Servers) }},
	{"data_mb_per_month", func(d *decoder, g *AppGroup) error { return decodeFloat(d, &g.DataMbPerMonth) }},
	{"users_by_location", func(d *decoder, g *AppGroup) error { return decodeArray(d, &g.UsersByLocation, decodeInt) }},
	{"latency_penalty", func(d *decoder, g *AppGroup) error { return decodePenalty(d, &g.LatencyPenalty) }},
	{"current_dc", func(d *decoder, g *AppGroup) error { return decodeString(d, &g.CurrentDC) }},
	{"allowed_regions", func(d *decoder, g *AppGroup) error {
		return decodeArray(d, &g.AllowedRegions, decodeString[geo.Region])
	}},
	{"pinned_dc", func(d *decoder, g *AppGroup) error { return decodeString(d, &g.PinnedDC) }},
	{"forbidden_dcs", func(d *decoder, g *AppGroup) error { return decodeArray(d, &g.ForbiddenDCs, decodeString[string]) }},
	{"shared_risk_group", func(d *decoder, g *AppGroup) error { return decodeString(d, &g.SharedRiskGroup) }},
}

var dcFields = []field[DataCenter]{
	{"id", func(d *decoder, dc *DataCenter) error { return decodeString(d, &dc.ID) }},
	{"name", func(d *decoder, dc *DataCenter) error { return decodeString(d, &dc.Name) }},
	{"location", func(d *decoder, dc *DataCenter) error { return decodeLocation(d, &dc.Location) }},
	{"capacity_servers", func(d *decoder, dc *DataCenter) error { return decodeInt(d, &dc.CapacityServers) }},
	{"space_cost", func(d *decoder, dc *DataCenter) error { return decodeCurve(d, &dc.SpaceCost) }},
	{"power_cost_per_kwh", func(d *decoder, dc *DataCenter) error { return decodeFloat(d, &dc.PowerCostPerKWh) }},
	{"labor_cost_per_admin", func(d *decoder, dc *DataCenter) error { return decodeFloat(d, &dc.LaborCostPerAdmin) }},
	{"wan_cost_per_mb", func(d *decoder, dc *DataCenter) error { return decodeFloat(d, &dc.WANCostPerMb) }},
}

// decodeMatrix decodes a [][]float64.
func decodeMatrix(d *decoder, m *[][]float64) error {
	return decodeArray(d, m, func(d *decoder, row *[]float64) error { return decodeArray(d, row, decodeFloat) })
}

var estateFields = []field[Estate]{
	{"dcs", func(d *decoder, e *Estate) error {
		return decodeArray(d, &e.DCs, func(d *decoder, dc *DataCenter) error { return decodeObject(d, dc, dcFields) })
	}},
	{"latency_ms", func(d *decoder, e *Estate) error { return decodeMatrix(d, &e.LatencyMs) }},
	{"vpn_link_monthly", func(d *decoder, e *Estate) error { return decodeMatrix(d, &e.VPNLinkMonthly) }},
}

var paramFields = []field[CostParams]{
	{"server_power_kw", func(d *decoder, p *CostParams) error { return decodeFloat(d, &p.ServerPowerKW) }},
	{"servers_per_admin", func(d *decoder, p *CostParams) error { return decodeFloat(d, &p.ServersPerAdmin) }},
	{"hours_per_month", func(d *decoder, p *CostParams) error { return decodeFloat(d, &p.HoursPerMonth) }},
	{"vpn_link_capacity_mb", func(d *decoder, p *CostParams) error { return decodeFloat(d, &p.VPNLinkCapacityMb) }},
	{"dr_server_cost", func(d *decoder, p *CostParams) error { return decodeFloat(d, &p.DRServerCost) }},
	{"secondary_latency_weight", func(d *decoder, p *CostParams) error {
		return decodeFloat(d, &p.SecondaryLatencyWeight)
	}},
	{"average_latency_penalty", func(d *decoder, p *CostParams) error {
		return decodeBool(d, &p.AverageLatencyPenalty)
	}},
}

var stateFields = []field[AsIsState]{
	{"name", func(d *decoder, s *AsIsState) error { return decodeString(d, &s.Name) }},
	{"groups", func(d *decoder, s *AsIsState) error {
		return decodeArray(d, &s.Groups, func(d *decoder, g *AppGroup) error { return decodeObject(d, g, groupFields) })
	}},
	{"user_locations", func(d *decoder, s *AsIsState) error {
		return decodeArray(d, &s.UserLocations, decodeLocation)
	}},
	{"current", func(d *decoder, s *AsIsState) error { return decodeObject(d, &s.Current, estateFields) }},
	{"target", func(d *decoder, s *AsIsState) error { return decodeObject(d, &s.Target, estateFields) }},
	{"params", func(d *decoder, s *AsIsState) error { return decodeObject(d, &s.Params, paramFields) }},
}

// decodeState decodes one JSON document holding an AsIsState, with
// nothing but whitespace around it. It does not validate the state.
func decodeState(data []byte) (*AsIsState, error) {
	d := decoder{data: data}
	var s AsIsState
	if err := decodeObject(&d, &s, stateFields); err != nil {
		return nil, err
	}
	if d.peek(); d.pos < len(d.data) {
		return nil, errorAt(d.pos, "unexpected %q after the state object", d.data[d.pos:d.pos+1])
	}
	return &s, nil
}
