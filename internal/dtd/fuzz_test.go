package dtd_test

import (
	"testing"

	"xqindep/internal/dtd"
	"xqindep/internal/xmark"
)

// FuzzParseSchema feeds arbitrary bytes to the schema parser (both
// compact and classic <!ELEMENT> notation go through it). The parser
// must reject garbage with an error — never panic, never hang: the
// nesting-depth and input-size limits bound the work on any input.
// Whatever it accepts, its canonical rendering must parse back to the
// same declarations and Fingerprint.
func FuzzParseSchema(f *testing.F) {
	seeds := []string{
		xmark.SchemaText,
		"doc <- (a | b)*\na <- c\nb <- c\nc <- #PCDATA",
		"r <- a\na <- (b, c, e)*\nb <- f\nc <- #PCDATA\ne <- f?\nf <- (g | e)\ng <- #PCDATA",
		"bib <- book*\nbook <- title, author*, price?\ntitle <- #PCDATA\nauthor <- first?, last\nfirst <- #PCDATA\nlast <- #PCDATA\nprice <- #PCDATA",
		"<!ELEMENT doc (a|b)*>\n<!ELEMENT a (c)>\n<!ELEMENT b (c)>\n<!ELEMENT c (#PCDATA)>",
		"r <- (x | y | z)*\nx <- (x | y | z)*\ny <- (x | y | z)*\nz <- #PCDATA",
		"a <- ((((((b))))))\nb <- ()",
		"a <- b+, c*\nb <- ()\nc <- ()",
		"a <- start\nstart <- #PCDATA",
		"start start\na <- start\nstart <- a?",
		"a[x] <- b*\nb[x] <- #PCDATA",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		d, err := dtd.Parse(input)
		if err != nil {
			return
		}
		if d == nil {
			t.Fatal("Parse returned nil DTD with nil error")
		}
		// parse(print(d)) has the same declarations and Fingerprint.
		checkReparse(t, d)
	})
}
