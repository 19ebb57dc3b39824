package model_test

// The tests in this file hold ReadState's decoder to encoding/json. They
// live in package model_test because their corpus comes from
// internal/datagen, which imports model.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/geo"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/stepwise"
)

// referenceDecode is the oracle: encoding/json into an AsIsState with
// unknown keys rejected (stepwise's unmarshalers are strict at their own
// level), followed by a check that only whitespace remains.
func referenceDecode(data []byte) (*model.AsIsState, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s model.AsIsState
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, fmt.Errorf("%d bytes after the state object", len(rest))
	}
	return &s, nil
}

// checkMatchesReference requires the decoder to accept data exactly when
// the reference does, to build a reflect.DeepEqual state with the same
// canonical bytes, and ReadState to be that decode plus Validate.
func checkMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := referenceDecode(data)
	got, err := model.DecodeState(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decoder error %v, encoding/json error %v, on %s", err, wantErr, abbreviate(data))
	}
	_, readErr := model.ReadState(bytes.NewReader(data))
	if wantErr != nil {
		if readErr == nil {
			t.Fatalf("ReadState accepted what encoding/json rejects (%v): %s", wantErr, abbreviate(data))
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded state differs from encoding/json's on %s:\n got %#v\nwant %#v", abbreviate(data), got, want)
	}
	gotBytes, err := model.CanonicalBytes(got)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := model.CanonicalBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("canonical bytes differ on %s:\n got %s\nwant %s", abbreviate(data), gotBytes, wantBytes)
	}
	if (readErr == nil) != (want.Validate() == nil) {
		t.Fatalf("ReadState error %v, Validate error %v", readErr, want.Validate())
	}
}

func abbreviate(data []byte) string {
	if len(data) > 300 {
		return fmt.Sprintf("%q… (%d bytes)", data[:300], len(data))
	}
	return fmt.Sprintf("%q", data)
}

// generatedStates are the datagen estates of the corpus: the three case
// studies at three scales over several seeds, the world-spanning estate
// (allowed_regions), the linear Figure 7 and 9 estates (the latter with
// vpn_link_monthly), and one estate carrying the admin constraints and
// the cost switches datagen leaves unset.
func generatedStates(t testing.TB) []*model.AsIsState {
	t.Helper()
	var states []*model.AsIsState
	add := func(s *model.AsIsState, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, s)
	}
	for _, cfg := range []datagen.CaseStudyConfig{datagen.Enterprise1(), datagen.Florida(), datagen.Federal()} {
		for _, scale := range []float64{0.05, 0.1, 0.25} {
			for _, seed := range []int64{cfg.Seed, 101, 202} {
				c := cfg.Scaled(scale)
				c.Seed = seed
				add(c.Generate())
			}
		}
	}
	add(datagen.Global().Generate())
	add(datagen.Fig7Config().Generate())
	add(datagen.Fig9Config().Generate())

	s, err := datagen.Enterprise1().Scaled(0.05).Generate()
	if err != nil {
		t.Fatal(err)
	}
	s.Groups[0].PinnedDC = s.Target.DCs[0].ID
	s.Groups[1].ForbiddenDCs = []string{s.Target.DCs[1].ID, s.Target.DCs[2].ID}
	s.Groups[2].SharedRiskGroup = "rack-a"
	s.Groups[3].SharedRiskGroup = "rack-a"
	s.Params.AverageLatencyPenalty = true
	s.Params.SecondaryLatencyWeight = 0.5
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	states = append(states, s)
	return states
}

// corpus returns every generated state both indented (WriteState) and
// compact (json.Marshal).
func corpus(t testing.TB) [][]byte {
	t.Helper()
	var docs [][]byte
	for _, s := range generatedStates(t) {
		var indented bytes.Buffer
		if err := model.WriteState(&indented, s); err != nil {
			t.Fatal(err)
		}
		compact, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, indented.Bytes(), compact)
	}
	return docs
}

// baseState is a small estate touching every field of the schema.
func baseState(t testing.TB) *model.AsIsState {
	t.Helper()
	pen, err := stepwise.NewLatencyPenalty([]stepwise.PenaltyStep{
		{ThresholdMs: 10, PenaltyPerUser: 50}, {ThresholdMs: 40, PenaltyPerUser: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := stepwise.NewCurve([]stepwise.Segment{{Width: 100, UnitCost: 80}, {Width: math.Inf(1), UnitCost: 70}})
	if err != nil {
		t.Fatal(err)
	}
	loc := func(id string) geo.Location {
		return geo.Location{ID: id, Name: "City " + id, LatDeg: 40.5, LonDeg: -73.25, Region: geo.RegionNorthAmerica}
	}
	dc := func(id string, space stepwise.Curve) model.DataCenter {
		return model.DataCenter{ID: id, Name: "DC " + id, Location: loc("l" + id), CapacityServers: 40,
			SpaceCost: space, PowerCostPerKWh: 0.1, LaborCostPerAdmin: 6500, WANCostPerMb: 0.02}
	}
	s := &model.AsIsState{
		Name: "base",
		Groups: []model.AppGroup{
			{ID: "g1", Name: "Group 1", Servers: 10, DataMbPerMonth: 1000, UsersByLocation: []int{50, 0},
				LatencyPenalty: pen, CurrentDC: "c1", AllowedRegions: []geo.Region{geo.RegionNorthAmerica, geo.RegionEurope},
				PinnedDC: "t1", ForbiddenDCs: []string{"t2"}, SharedRiskGroup: "r"},
			{ID: "g2", Servers: 5, DataMbPerMonth: 500, UsersByLocation: []int{0, 30}, CurrentDC: "c1", SharedRiskGroup: "r"},
			{ID: "g3", Servers: 8, UsersByLocation: []int{10, 10}, LatencyPenalty: pen, CurrentDC: "c1"},
		},
		UserLocations: []geo.Location{loc("u0"), loc("u1")},
		Current: model.Estate{
			DCs:       []model.DataCenter{dc("c1", stepwise.Flat(120))},
			LatencyMs: [][]float64{{5}, {20}},
		},
		Target: model.Estate{
			DCs:            []model.DataCenter{dc("t1", tiered), dc("t2", stepwise.Flat(90))},
			LatencyMs:      [][]float64{{5, 25}, {25, 5}},
			VPNLinkMonthly: [][]float64{{100, 200}, {300, 400}},
		},
		Params: model.DefaultParams(),
	}
	s.Params.AverageLatencyPenalty = true
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// keyPattern finds the keys of a compact document built from baseState,
// whose keys and string values hold no escapes.
var keyPattern = regexp.MustCompile(`"([a-z_]+)":`)

// valueEnd returns the offset just past the JSON value starting at off.
func valueEnd(t testing.TB, doc []byte, off int) int {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc[off:]))
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		t.Fatal(err)
	}
	return off + int(dec.InputOffset())
}

// replaceOnce returns doc with its first from replaced by to.
func replaceOnce(t testing.TB, doc []byte, from, to string) []byte {
	t.Helper()
	if !bytes.Contains(doc, []byte(from)) {
		t.Fatalf("%s not in the document", from)
	}
	return bytes.Replace(doc, []byte(from), []byte(to), 1)
}

// splice returns doc with doc[from:to] replaced by s.
func splice(doc []byte, from, to int, s string) []byte {
	out := append([]byte{}, doc[:from]...)
	out = append(out, s...)
	return append(out, doc[to:]...)
}

// edgeInputs are hand-made documents at the edges of the contract, each
// derived from baseState's compact encoding.
func edgeInputs(t testing.TB) map[string][]byte {
	t.Helper()
	base, err := json.Marshal(baseState(t))
	if err != nil {
		t.Fatal(err)
	}
	edges := map[string][]byte{"base": base}
	// Every key in turn: its value null, the key in upper case, the member
	// repeated, and the key escaped.
	for i, m := range keyPattern.FindAllSubmatchIndex(base, -1) {
		key := string(base[m[2]:m[3]])
		end := valueEnd(t, base, m[1])
		member := string(base[m[0]:end])
		edges[fmt.Sprintf("null/%d-%s", i, key)] = splice(base, m[1], end, "null")
		edges[fmt.Sprintf("upper/%d-%s", i, key)] = splice(base, m[2], m[3], strings.ToUpper(key))
		edges[fmt.Sprintf("repeat/%d-%s", i, key)] = splice(base, m[0], end, member+","+member)
		edges[fmt.Sprintf("escaped/%d-%s", i, key)] = splice(base, m[2], m[2]+1, fmt.Sprintf(`\u%04x`, key[0]))
	}
	// Members appended to the state object replace or merge into the
	// base's: a repeated array decodes into the existing elements.
	for name, members := range map[string]string{
		"merge/groups-shorter":        `"groups":[{"name":"x"}]`,
		"merge/groups-regrow":         `"groups":[{"name":"x"}],"groups":[{"id":"a"},{},{"servers":3},{"id":"g4"}]`,
		"merge/groups-null":           `"groups":null`,
		"merge/groups-empty":          `"groups":[]`,
		"merge/groups-null-elems":     `"groups":[null,null]`,
		"merge/groups-null-regrow":    `"groups":null,"groups":[{"id":"a"}]`,
		"merge/dc-nested":             `"current":{"dcs":[{"name":"n","location":{"lat_deg":1}}]}`,
		"merge/matrix-nulls":          `"target":{"latency_ms":[[1,null],null,[]]}`,
		"merge/users-null-elem":       `"groups":[{"users_by_location":[null,7]}]`,
		"merge/penalty-null":          `"groups":[{"latency_penalty":null}]`,
		"merge/penalty-steps-merge":   `"groups":[{"latency_penalty":{"steps":[{"threshold_ms":5}],"steps":[{"penalty_per_user":2}]}}]`,
		"merge/penalty-steps-null":    `"groups":[{"latency_penalty":{"steps":null}}]`,
		"merge/penalty-empty":         `"groups":[{"latency_penalty":{}}]`,
		"merge/space-null":            `"target":{"dcs":[{"space_cost":null}]}`,
		"merge/space-empty":           `"target":{"dcs":[{"space_cost":{"segments":[]}}]}`,
		"merge/space-segments-merge":  `"target":{"dcs":[{"space_cost":{"segments":[{"width":{"a":[1,"b",null]},"unit_cost":1}],"segments":[{"width":"inf"}]}}]}`,
		"merge/space-width-bad":       `"target":{"dcs":[{"space_cost":{"segments":[{"width":[true],"unit_cost":1}]}}]}`,
		"merge/space-width-range":     `"target":{"dcs":[{"space_cost":{"segments":[{"width":[1e400],"width":1,"unit_cost":1}]}}]}`,
		"merge/space-width-escaped":   `"target":{"dcs":[{"space_cost":{"segments":[{"width":"\u0069nf","unit_cost":1}]}}]}`,
		"merge/space-width-upper":     `"target":{"dcs":[{"space_cost":{"segments":[{"width":"INF","unit_cost":1}]}}]}`,
		"merge/space-width-null":      `"target":{"dcs":[{"space_cost":{"segments":[{"width":null,"unit_cost":1}]}}]}`,
		"merge/space-width-missing":   `"target":{"dcs":[{"space_cost":{"segments":[{"unit_cost":1}]}}]}`,
		"merge/space-width-then-null": `"target":{"dcs":[{"space_cost":{"segments":[{"width":5,"width":null,"unit_cost":1}]}}]}`,
		"merge/space-width-then-bool": `"target":{"dcs":[{"space_cost":{"segments":[{"width":"inf","width":true,"unit_cost":1}]}}]}`,
		"merge/params-bool-null":      `"params":{"average_latency_penalty":null}`,
		"merge/params-bool-number":    `"params":{"average_latency_penalty":1}`,
		"merge/regions-escaped":       `"user_locations":[{"region":"\u0065urope"}]`,
		"fold/kelvin":                 "\"params\":{\"server_power_\u212aw\":0.5}",
		"fold/kelvin-escaped":         `"params":{"server_power_\u212aw":0.5}`,
		"fold/long-s":                 "\"groups\":[{\"\u017fervers\":4}]",
		"fold/dotless-i":              "\"groups\":[{\"\u0131d\":\"a\"}]",
		"fold/mixed":                  `"Params":{"Hours_Per_MONTH":700}`,
		"unknown/space-cost":          `"target":{"dcs":[{"space_cost":{"segments":[],"bogus":1}}]}`,
		"unknown/segment":             `"target":{"dcs":[{"space_cost":{"segments":[{"width":1,"unit_cots":2}]}}]}`,
		"unknown/penalty":             `"groups":[{"latency_penalty":{"steps":[],"bogus":1}}]`,
		"unknown/step":                `"groups":[{"latency_penalty":{"steps":[{"threshold_ms":1,"bogus":1}]}}]`,
		"unknown/location":            `"user_locations":[{"bogus":1}]`,
		"unknown/slash-escape":        `"n\/ame":"x"`,
	} {
		edges[name] = append(base[:len(base)-1:len(base)-1], ","+members+"}"...)
	}
	// Numbers into a float field (hours_per_month) and an int field
	// (servers).
	for i, lit := range []string{
		"0", "-0", "1", "-1", "01", "-01", "+1", ".5", "1.", "1.5", "1e2", "1E+2", "1e-2", "1e", "1e+",
		"-", "NaN", "Infinity", "0x10", "1e400", "-1e400", "1e-400", "2.5e-3", "1.0",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"12345678901234567890123", "1_000", "true", `"5"`, "[]", "{}",
	} {
		edges[fmt.Sprintf("number/float-%d", i)] = replaceOnce(t, base, `"hours_per_month":730`, `"hours_per_month":`+lit)
		edges[fmt.Sprintf("number/int-%d", i)] = replaceOnce(t, base, `"servers":10`, `"servers":`+lit)
	}
	// Strings, as the state's name and as a key.
	for i, lit := range []string{
		`a\u00e9b`, `\ud83d\ude00`, `\ud83d`, `\ude00`, `\ud83d\u0041`, `\ud83dx`, `\ud83d\ud83d\ude00`,
		"\xff", "\xe2\x82", "\xed\xa0\x80", "\x7f", `\u0000`, `\"\\\/\b\f\n\r\t`, `\'`, `\x41`, `\u12`, `\uZZZZ`,
		"\x01", "\t", "\u00e9", `\u006e\u0061\u006d\u0065`,
	} {
		edges[fmt.Sprintf("string/value-%d", i)] = replaceOnce(t, base, `"name":"base"`, `"name":"`+lit+`"`)
		edges[fmt.Sprintf("string/key-%d", i)] = replaceOnce(t, base, `"name":"base"`, `"`+lit+`":"base"`)
	}
	// A width's value of any shape is read up to encoding/json's nesting
	// limit of 10000: the segment object sits at depth 7, so 9993 nested
	// arrays fit and 9994 do not.
	for _, n := range []int{9993, 9994} {
		deep := strings.Repeat("[", n) + strings.Repeat("]", n)
		edges[fmt.Sprintf("depth/width-%d", n)] = replaceOnce(t, base, `{"width":100,`, `{"width":`+deep+`,"width":100,`)
	}
	s := string(base)
	for name, doc := range map[string]string{
		"top/null":            "null",
		"top/empty-object":    "{}",
		"top/array":           "[]",
		"top/string":          `"x"`,
		"top/empty":           "",
		"top/whitespace":      " \t\r\n",
		"top/bom":             "\ufeff" + s,
		"top/padded":          " \n\t" + s + "\r\n ",
		"top/trailing-object": s + "{}",
		"top/trailing-byte":   s + "x",
		"top/trailing-nul":    s + "\x00",
		"top/truncated":       s[:len(s)-1],
		"top/trailing-comma":  s[:len(s)-1] + ",}",
		"top/vertical-tab":    "\v" + s,
		"top/unclosed-array":  `{"groups":[`,
		"top/unclosed-key":    `{"groups`,
		"top/missing-colon":   `{"groups" []}`,
		"top/key-not-string":  `{groups:[]}`,
		"top/nul-literal":     `{"params":{"average_latency_penalty":nul}}`,
		"top/true-suffix":     `{"params":{"average_latency_penalty":truex}}`,
	} {
		edges[name] = []byte(doc)
	}
	return edges
}

func TestReadStateMatchesEncodingJSON(t *testing.T) {
	for i, doc := range corpus(t) {
		t.Run(fmt.Sprintf("corpus-%d", i), func(t *testing.T) {
			if _, err := referenceDecode(doc); err != nil {
				t.Fatalf("encoding/json rejects a generated state: %v", err)
			}
			checkMatchesReference(t, doc)
		})
	}
	for name, doc := range edgeInputs(t) {
		t.Run(name, func(t *testing.T) { checkMatchesReference(t, doc) })
	}
}

func FuzzReadState(f *testing.F) {
	// Smallest seeds first: the fuzzer mutates its seeds in order and
	// minimizes each new input before it goes on, which takes seconds on
	// a generated state and most of a short run.
	seeds := corpus(f)
	for _, doc := range edgeInputs(f) {
		seeds = append(seeds, doc)
	}
	slices.SortFunc(seeds, func(a, b []byte) int {
		if c := cmp.Compare(len(a), len(b)); c != 0 {
			return c
		}
		return bytes.Compare(a, b)
	})
	for _, doc := range seeds {
		f.Add(doc)
	}
	f.Fuzz(checkMatchesReference)
}

// TestReadStateRejectsTrailingData: the one intended difference from
// encoding/json's stream decoder, which stops after the first value.
func TestReadStateRejectsTrailingData(t *testing.T) {
	base, err := json.Marshal(baseState(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.ReadState(bytes.NewReader(append(base, "\n\t "...))); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{"x", "{}", " 1", "\x00"} {
		_, err := model.ReadState(bytes.NewReader(append(base[:len(base):len(base)], tail...)))
		if err == nil || !strings.Contains(err.Error(), "after the state object") {
			t.Errorf("trailing %q: error %v, want one naming the data after the state object", tail, err)
		}
	}
}

// TestReadStateErrorsNameOffsetAndField: a decode error gives the byte
// offset it stopped at and the field path that leads there.
func TestReadStateErrorsNameOffsetAndField(t *testing.T) {
	base, err := json.Marshal(baseState(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, from, to, want string
	}{
		{"int", `"servers":5`, `"servers":5.5`, "groups[1].servers (offset %d)"},
		{"unknown", `"servers":5`, `"servres":5`, "groups[1] (offset %d): unknown field \"servres\""},
		{"curve", `"unit_cost":70`, `"unit_cost":-70`, "target.dcs[0].space_cost (offset %d)"},
		{"matrix", `[[5,25],`, `[[5,"25"],`, "target.latency_ms[0][1] (offset %d)"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			at := bytes.Index(base, []byte(tt.from))
			if at < 0 {
				t.Fatalf("%s not in the base document", tt.from)
			}
			doc := splice(base, at, at+len(tt.from), tt.to)
			// The offset is that of the first byte that does not fit: the
			// value for a type error, the key for an unknown field, and
			// the curve's opening brace for a curve the constructor
			// rejects.
			off := at + strings.IndexByte(tt.to, ':') + 1
			switch tt.name {
			case "unknown":
				off = at
			case "curve":
				off = bytes.LastIndex(doc[:at], []byte(`"space_cost":`)) + len(`"space_cost":`)
			case "matrix":
				off = at + strings.Index(tt.to, `"25"`)
			}
			_, err := model.ReadState(bytes.NewReader(doc))
			if want := fmt.Sprintf(tt.want, off); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("error %v, want it to contain %q", err, want)
			}
		})
	}
}

// TestValidateAllocs: Validate formats a field path only when a check
// fails, so a valid ×0.1 Enterprise1 state validates with a handful of
// allocations (its ID sets), not one per group and data center cost.
func TestValidateAllocs(t *testing.T) {
	s, err := datagen.Enterprise1().Scaled(0.1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("Validate allocates %.0f times on a ×0.1 Enterprise1 state, want at most 8", allocs)
	}
}

// BenchmarkReadState reads a ×0.1 Enterprise1 state, the size of one
// benchmark op's input, through ReadState and through the encoding/json
// reference.
func BenchmarkReadState(b *testing.B) {
	s, err := datagen.Enterprise1().Scaled(0.1).Generate()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.WriteState(&buf, s); err != nil {
		b.Fatal(err)
	}
	doc := buf.Bytes()
	b.Run("decoder", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := model.ReadState(bytes.NewReader(doc)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := referenceDecode(doc)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
