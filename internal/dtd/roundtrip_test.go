package dtd_test

import (
	"testing"

	"xqindep/internal/dtd"
	"xqindep/internal/xmark"
)

// checkReparse asserts the printer/parser round trip: the canonical
// rendering d.String() parses back to a schema with the same start
// symbol, the same declarations (content model and label of every
// type) and the same Fingerprint.
func checkReparse(t *testing.T, d *dtd.DTD) {
	t.Helper()
	text := d.String()
	d2, err := dtd.Parse(text)
	if err != nil {
		t.Fatalf("String() does not reparse: %v\n%s", err, text)
	}
	if d2.Start != d.Start {
		t.Fatalf("start %q reparses as %q\n%s", d.Start, d2.Start, text)
	}
	if len(d2.Types) != len(d.Types) {
		t.Fatalf("%d types reparse as %d\n%s", len(d.Types), len(d2.Types), text)
	}
	for i, typ := range d.Types {
		if d2.Types[i] != typ {
			t.Fatalf("type %d: %q reparses as %q\n%s", i, typ, d2.Types[i], text)
		}
		if a, b := d.Content[typ].String(), d2.Content[typ].String(); a != b {
			t.Fatalf("d(%s) = %q reparses as %q", typ, a, b)
		}
		if a, b := d.LabelOf(typ), d2.LabelOf(typ); a != b {
			t.Fatalf("label of %s = %q reparses as %q", typ, a, b)
		}
	}
	if d2.Fingerprint() != d.Fingerprint() {
		t.Fatalf("fingerprint %s reparses as %s\n%s", d.Fingerprint(), d2.Fingerprint(), text)
	}
}

// A type may be named start: only a line that is exactly "start NAME"
// is the start directive.
func TestTypeNamedStart(t *testing.T) {
	d, err := dtd.Parse("a <- start\nstart <- #PCDATA")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.Start != "a" || !d.HasType("start") {
		t.Fatalf("start = %q, types %v", d.Start, d.Types)
	}
	checkReparse(t, d)

	// The directive still works, including naming the type start.
	d, err = dtd.Parse("start start\na <- start\nstart <- a?")
	if err != nil {
		t.Fatalf("Parse with directive: %v", err)
	}
	if d.Start != "start" {
		t.Fatalf("start = %q, want start", d.Start)
	}
	checkReparse(t, d)
}

// XMark declares a type named start; its canonical rendering must
// reparse to the same schema.
func TestXMarkStringReparses(t *testing.T) {
	d := xmark.Schema()
	if !d.HasType("start") {
		t.Fatal("XMark schema no longer declares a type named start")
	}
	checkReparse(t, d)
}
