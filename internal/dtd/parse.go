package dtd

import (
	"fmt"
	"strings"
	"unicode"

	"xqindep/internal/guard"
)

// Parse reads a schema in either of two syntaxes and builds a DTD.
//
// Compact notation (one declaration per line, the paper's style; the
// first declaration is the start symbol unless a "start NAME" line is
// present; "#" starts a comment; a type may carry an EDTD label in
// brackets):
//
//	start doc
//	doc  <- (a | b)*
//	a    <- c
//	b    <- c
//	c    <- #PCDATA
//	t1[a] <- t2*        # EDTD: type t1 labels <a>
//
// Classic DTD notation:
//
//	<!ELEMENT doc (a | b)*>
//	<!ELEMENT a (c)>
//	<!ELEMENT c (#PCDATA)>
//	<!ELEMENT e EMPTY>
//
// In classic notation the first declared element is the start symbol.
// <!ATTLIST ...> declarations are accepted and ignored (the paper's
// benchmark rewriting removes attribute use).
func Parse(input string) (*DTD, error) {
	return ParseLimited(input, guard.DefaultLimits())
}

// ParseLimited is Parse under explicit parser limits: MaxParseInput
// bounds the schema text size and MaxParseDepth bounds parenthesis
// nesting in content models. Zero limit fields take defaults.
func ParseLimited(input string, lim guard.Limits) (*DTD, error) {
	lim = lim.OrDefaults()
	if len(input) > lim.MaxParseInput {
		return nil, fmt.Errorf("dtd: input of %d bytes exceeds the %d-byte limit", len(input), lim.MaxParseInput)
	}
	if strings.Contains(input, "<!ELEMENT") {
		return parseClassic(input, lim)
	}
	return parseCompact(input, lim)
}

// MustParse is Parse, panicking on error; for fixtures.
func MustParse(input string) *DTD {
	d, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return d
}

func parseCompact(input string, lim guard.Limits) (*DTD, error) {
	content := make(map[string]*Regex)
	label := make(map[string]string)
	start := ""
	for ln, line := range strings.Split(input, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 && !strings.Contains(line, "#PCDATA") {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// The start directive is exactly "start NAME"; anything else
		// beginning with "start" is a declaration (a type may be named
		// start, and DTD.String prints it as "start <- ...").
		if f := strings.Fields(line); len(f) == 2 && f[0] == "start" && checkName(f[1]) == nil {
			start = f[1]
			continue
		}
		lhs, rhs, ok := strings.Cut(line, "<-")
		if !ok {
			return nil, fmt.Errorf("dtd: line %d: missing \"<-\" in %q", ln+1, line)
		}
		name := strings.TrimSpace(lhs)
		lbl := ""
		if i := strings.IndexByte(name, '['); i >= 0 && strings.HasSuffix(name, "]") {
			lbl = name[i+1 : len(name)-1]
			name = strings.TrimSpace(name[:i])
		}
		if err := checkName(name); err != nil {
			return nil, fmt.Errorf("dtd: line %d: %w", ln+1, err)
		}
		if _, dup := content[name]; dup {
			return nil, fmt.Errorf("dtd: line %d: type %q declared twice", ln+1, name)
		}
		r, err := parseRegexLimited(strings.TrimSpace(rhs), lim.MaxParseDepth)
		if err != nil {
			return nil, fmt.Errorf("dtd: line %d: %w", ln+1, err)
		}
		content[name] = r
		if lbl != "" {
			label[name] = lbl
		}
		if start == "" {
			start = name
		}
	}
	if len(label) == 0 {
		label = nil
	}
	if start == "" {
		return nil, fmt.Errorf("dtd: no declarations")
	}
	return NewExtended(start, content, label)
}

func parseClassic(input string, lim guard.Limits) (*DTD, error) {
	content := make(map[string]*Regex)
	start := ""
	rest := input
	for {
		i := strings.Index(rest, "<!")
		if i < 0 {
			break
		}
		j := strings.IndexByte(rest[i:], '>')
		if j < 0 {
			return nil, fmt.Errorf("dtd: unterminated declaration")
		}
		decl := rest[i+2 : i+j]
		rest = rest[i+j+1:]
		fields := strings.Fields(decl)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "ELEMENT":
			if len(fields) < 3 {
				return nil, fmt.Errorf("dtd: malformed ELEMENT declaration %q", decl)
			}
			name := fields[1]
			if err := checkName(name); err != nil {
				return nil, err
			}
			if _, dup := content[name]; dup {
				return nil, fmt.Errorf("dtd: type %q declared twice", name)
			}
			model := strings.TrimSpace(strings.Join(fields[2:], " "))
			r, err := parseContentModel(model, lim.MaxParseDepth)
			if err != nil {
				return nil, fmt.Errorf("dtd: element %s: %w", name, err)
			}
			content[name] = r
			if start == "" {
				start = name
			}
		case "ATTLIST", "ENTITY", "NOTATION", "--":
			// ignored
		default:
			// comments and unknown declarations are ignored
		}
	}
	if start == "" {
		return nil, fmt.Errorf("dtd: no ELEMENT declarations")
	}
	return New(start, content)
}

func parseContentModel(model string, maxDepth int) (*Regex, error) {
	switch model {
	case "EMPTY":
		return Epsilon(), nil
	case "ANY":
		return nil, fmt.Errorf("ANY content is not supported")
	}
	return parseRegexLimited(model, maxDepth)
}

func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("empty type name")
	}
	if name == StringType {
		return fmt.Errorf("%q is reserved for the string type", StringType)
	}
	for _, r := range name {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-' && r != '.' {
			return fmt.Errorf("invalid character %q in type name %q", r, name)
		}
	}
	return nil
}

// parseRegex parses the content-model expression grammar:
//
//	alt  := seq ("|" seq)*
//	seq  := post ("," post)*
//	post := atom ("*" | "+" | "?")*
//	atom := "(" alt ")" | "#PCDATA" | name | "()"
type regexParser struct {
	in       string
	pos      int
	depth    int
	maxDepth int
}

func parseRegex(s string) (*Regex, error) {
	return parseRegexLimited(s, guard.DefaultMaxParseDepth)
}

func parseRegexLimited(s string, maxDepth int) (*Regex, error) {
	p := &regexParser{in: s, maxDepth: maxDepth}
	r, err := p.alt()
	if err != nil {
		return nil, err
	}
	p.ws()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("trailing input %q in content model", p.in[p.pos:])
	}
	return r, nil
}

func (p *regexParser) ws() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *regexParser) peek() byte {
	if p.pos < len(p.in) {
		return p.in[p.pos]
	}
	return 0
}

func (p *regexParser) alt() (*Regex, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.maxDepth > 0 && p.depth > p.maxDepth {
		return nil, fmt.Errorf("content model nesting exceeds the limit of %d", p.maxDepth)
	}
	first, err := p.seq()
	if err != nil {
		return nil, err
	}
	kids := []*Regex{first}
	for {
		p.ws()
		if p.peek() != '|' {
			break
		}
		p.pos++
		next, err := p.seq()
		if err != nil {
			return nil, err
		}
		kids = append(kids, next)
	}
	return Alt(kids...), nil
}

func (p *regexParser) seq() (*Regex, error) {
	first, err := p.post()
	if err != nil {
		return nil, err
	}
	kids := []*Regex{first}
	for {
		p.ws()
		if p.peek() != ',' {
			break
		}
		p.pos++
		next, err := p.post()
		if err != nil {
			return nil, err
		}
		kids = append(kids, next)
	}
	return Seq(kids...), nil
}

func (p *regexParser) post() (*Regex, error) {
	r, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		p.ws()
		switch p.peek() {
		case '*':
			p.pos++
			r = Star(r)
		case '+':
			p.pos++
			r = Plus(r)
		case '?':
			p.pos++
			r = Opt(r)
		default:
			return r, nil
		}
	}
}

func (p *regexParser) atom() (*Regex, error) {
	p.ws()
	switch {
	case p.peek() == '(':
		p.pos++
		p.ws()
		if p.peek() == ')' { // "()" is ε
			p.pos++
			return Epsilon(), nil
		}
		r, err := p.alt()
		if err != nil {
			return nil, err
		}
		p.ws()
		if p.peek() != ')' {
			return nil, fmt.Errorf("missing ')' at offset %d of %q", p.pos, p.in)
		}
		p.pos++
		return r, nil
	case strings.HasPrefix(p.in[p.pos:], "#PCDATA"):
		p.pos += len("#PCDATA")
		return Sym(StringType), nil
	case p.peek() == 0:
		return nil, fmt.Errorf("unexpected end of content model %q", p.in)
	default:
		start := p.pos
		for p.pos < len(p.in) {
			c := p.in[p.pos]
			if c == ' ' || c == '\t' || c == ',' || c == '|' || c == ')' || c == '(' || c == '*' || c == '+' || c == '?' {
				break
			}
			p.pos++
		}
		if p.pos == start {
			return nil, fmt.Errorf("unexpected character %q at offset %d of %q", p.in[p.pos], p.pos, p.in)
		}
		name := p.in[start:p.pos]
		if name == StringType {
			return Sym(StringType), nil
		}
		if err := checkName(name); err != nil {
			return nil, err
		}
		return Sym(name), nil
	}
}
