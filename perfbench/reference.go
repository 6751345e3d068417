package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"xqindep/internal/refcdag"
	"xqindep/internal/xmark"
)

// reference.json holds the expected verdict of every XMark pair,
// derived once by the retained map engine (internal/refcdag) — never
// by the engine under test — and checked against the eval oracle's
// ground truth when it was generated. Regenerate it with
//
//	go run . -gen-reference reference.json
//
//go:embed reference.json
var referenceJSON []byte

// referenceFile is the on-disk form: per update, one character per
// view in xmark.Views() order, '1' for independent and '0' for
// dependent.
type referenceFile struct {
	Engine      string            `json:"engine"`
	Oracle      string            `json:"oracle"`
	Views       []string          `json:"views"`
	Independent int               `json:"independent"`
	Verdicts    map[string]string `json:"verdicts"`
}

// reference maps a pair key ("UA1/q1") to its expected independence.
type reference map[string]bool

func pairKey(update, view string) string { return update + "/" + view }

// loadReference decodes the embedded reference and checks that it
// covers the current XMark matrix exactly.
func loadReference(data []byte) (reference, error) {
	var f referenceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	views := xmark.Views()
	if len(f.Views) != len(views) {
		return nil, fmt.Errorf("reference: %d views, the matrix has %d", len(f.Views), len(views))
	}
	for i, v := range views {
		if f.Views[i] != v.Name {
			return nil, fmt.Errorf("reference: view %d is %q, the matrix has %q", i, f.Views[i], v.Name)
		}
	}
	ref := make(reference, len(views)*len(xmark.Updates()))
	indep := 0
	for _, u := range xmark.Updates() {
		row, ok := f.Verdicts[u.Name]
		if !ok || len(row) != len(views) {
			return nil, fmt.Errorf("reference: update %s missing or of wrong length", u.Name)
		}
		for i, v := range views {
			switch row[i] {
			case '1':
				ref[pairKey(u.Name, v.Name)] = true
				indep++
			case '0':
				ref[pairKey(u.Name, v.Name)] = false
			default:
				return nil, fmt.Errorf("reference: update %s: bad verdict %q", u.Name, row[i])
			}
		}
	}
	if indep != f.Independent {
		return nil, fmt.Errorf("reference: %d independent verdicts, header says %d", indep, f.Independent)
	}
	return ref, nil
}

// generateReference derives every XMark verdict with the map engine,
// refuses to write a verdict file when the oracle refutes any
// Independent verdict, and writes the file to path.
func generateReference(path string) error {
	d := xmark.Schema()
	truth, err := xmark.GroundTruth(xmark.SampleDocuments(oracleDocs, oracleFactor))
	if err != nil {
		return err
	}
	f := referenceFile{
		Engine:   "internal/refcdag",
		Oracle:   fmt.Sprintf("xmark.GroundTruth(xmark.SampleDocuments(%d, %g))", oracleDocs, oracleFactor),
		Verdicts: make(map[string]string),
	}
	for _, v := range xmark.Views() {
		f.Views = append(f.Views, v.Name)
	}
	var refuted []string
	for _, u := range xmark.Updates() {
		var row strings.Builder
		for _, v := range xmark.Views() {
			verdict := refcdag.Independence(d, v.AST, u.AST)
			if !verdict.Independent {
				row.WriteByte('0')
				continue
			}
			row.WriteByte('1')
			f.Independent++
			if truth.IsDependent(u.Name, v.Name) {
				refuted = append(refuted, pairKey(u.Name, v.Name))
			}
		}
		f.Verdicts[u.Name] = row.String()
	}
	if len(refuted) > 0 {
		return fmt.Errorf("reference: the oracle refutes %d Independent verdicts: %v", len(refuted), refuted)
	}
	// An oracle that witnessed nothing would vouch for everything.
	witnessed := 0
	for _, deps := range truth.Dependent {
		witnessed += len(deps)
	}
	if witnessed == 0 {
		return fmt.Errorf("reference: the oracle witnessed no dependence at all")
	}
	f.Oracle += fmt.Sprintf(": %d dependent pairs witnessed, no Independent verdict refuted", witnessed)
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// The ground-truth sample the repository's experiment tests use.
const (
	oracleDocs   = 3
	oracleFactor = 1.2
)
