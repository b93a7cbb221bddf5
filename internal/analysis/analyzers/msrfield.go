package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"goear/internal/analysis"
)

// msrfield checks the bit-field arithmetic that the MSR emulation and
// its consumers are built on. The whole reproduction hangs off a
// handful of mask/shift pairs (MSR 0x620's 7-bit ratio fields,
// IA32_PERF_CTL's ratio byte, the RAPL unit field); a silently wrong
// mask corrupts every downstream table. The analyzer extracts every
// `(x & MASK) << SHIFT` / `(v >> SHIFT) & MASK` pattern with constant
// operands and verifies:
//
//   - masks are contiguous bit runs (0x7F yes, 0x7F7F no),
//   - fields packed by one Encode* function do not overlap,
//   - Encode*/Decode* pairs sharing a name suffix use identical field
//     layouts,
//   - a doc comment documenting "bits H:L" matches an extracted field
//     of exactly that position and width.
var msrfield = &analysis.Analyzer{
	Name: "msrfield",
	Doc: "verify MSR bit-field mask/shift constants: contiguous masks, non-overlapping " +
		"encode fields, Encode*/Decode* layout agreement, and doc 'bits H:L' consistency",
	Scope: []string{"internal/msr", "internal/uncore", "internal/power"},
	Run:   runMSRField,
}

// bitField is one extracted field placement in register coordinates.
type bitField struct {
	lo, width int
	pos       token.Pos
}

func (b bitField) String() string {
	return fmt.Sprintf("bits %d:%d", b.lo+b.width-1, b.lo)
}

type fieldSet []bitField

func (fs fieldSet) sorted() fieldSet {
	out := append(fieldSet(nil), fs...)
	sort.Slice(out, func(i, j int) bool { return out[i].lo < out[j].lo })
	return out
}

func (fs fieldSet) layout() string {
	parts := make([]string, len(fs))
	for i, f := range fs.sorted() {
		parts[i] = f.String()
	}
	return strings.Join(parts, ", ")
}

func runMSRField(pass *analysis.Pass) error {
	encode := map[string]fieldSet{} // suffix after "Encode" -> fields
	decode := map[string]fieldSet{} // suffix after "Decode" -> fields
	decodePos := map[string]token.Pos{}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fields := extractFields(pass, fd.Body)
			name := fd.Name.Name
			if suffix, ok := strings.CutPrefix(name, "Encode"); ok && len(fields) > 0 {
				encode[suffix] = append(encode[suffix], fields...)
				checkOverlap(pass, name, fields)
			}
			if suffix, ok := strings.CutPrefix(name, "Decode"); ok && len(fields) > 0 {
				decode[suffix] = append(decode[suffix], fields...)
				decodePos[suffix] = fd.Pos()
			}
			checkDocBits(pass, fd, fields)
		}
	}

	// Encode/Decode pairs must agree on the field layout.
	for suffix, enc := range encode {
		dec, ok := decode[suffix]
		if !ok {
			continue
		}
		if !sameLayout(enc, dec) {
			pass.Reportf(decodePos[suffix],
				"Encode%s and Decode%s disagree on the register layout: encode packs %s, decode extracts %s",
				suffix, suffix, fieldSet(enc).layout(), fieldSet(dec).layout())
		}
	}
	return nil
}

// extractFields walks a function body collecting constant mask/shift
// placements. Non-contiguous masks are reported immediately and
// excluded from the returned set.
func extractFields(pass *analysis.Pass, body *ast.BlockStmt) fieldSet {
	var fields fieldSet
	consumed := map[*ast.BinaryExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch bin.Op {
		case token.SHL:
			// (x & MASK) << SHIFT
			shift, ok := constUint64(pass.Info, bin.Y)
			if !ok {
				return true
			}
			and, ok := stripParens(bin.X).(*ast.BinaryExpr)
			if !ok || and.Op != token.AND {
				return true
			}
			mask, maskExpr, ok := andMask(pass, and)
			if !ok {
				return true
			}
			consumed[and] = true
			if f, ok := fieldFromMask(pass, mask, int(shift), maskExpr.Pos()); ok {
				fields = append(fields, f)
			}
		case token.AND:
			if consumed[bin] {
				return true
			}
			mask, maskExpr, ok := andMask(pass, bin)
			if !ok {
				return true
			}
			consumed[bin] = true
			shift := 0
			other := bin.X
			if maskExpr == bin.X {
				other = bin.Y
			}
			if shr, ok := stripParens(other).(*ast.BinaryExpr); ok && shr.Op == token.SHR {
				if s, ok := constUint64(pass.Info, shr.Y); ok {
					// (v >> SHIFT) & MASK
					shift = int(s)
				}
			}
			if f, ok := fieldFromMask(pass, mask, shift, maskExpr.Pos()); ok {
				fields = append(fields, f)
			}
		}
		return true
	})
	return fields
}

// andMask picks the constant operand of an & expression as the mask.
func andMask(pass *analysis.Pass, and *ast.BinaryExpr) (mask uint64, maskExpr ast.Expr, ok bool) {
	if m, ok := constUint64(pass.Info, and.Y); ok {
		return m, and.Y, true
	}
	if m, ok := constUint64(pass.Info, and.X); ok {
		return m, and.X, true
	}
	return 0, nil, false
}

// fieldFromMask converts a mask+shift into register coordinates,
// reporting masks with holes.
func fieldFromMask(pass *analysis.Pass, mask uint64, shift int, pos token.Pos) (bitField, bool) {
	lo, width, ok := contiguousRun(mask)
	if !ok {
		pass.Reportf(pos, "mask %#x is not a contiguous bit run; a field mask must cover adjacent bits", mask)
		return bitField{}, false
	}
	return bitField{lo: lo + shift, width: width, pos: pos}, true
}

// checkOverlap reports fields of one Encode function that collide.
func checkOverlap(pass *analysis.Pass, fn string, fields fieldSet) {
	fs := fields.sorted()
	for i := 1; i < len(fs); i++ {
		prev, cur := fs[i-1], fs[i]
		if cur.lo < prev.lo+prev.width {
			pass.Reportf(cur.pos, "%s packs overlapping fields: %s collides with %s", fn, cur, prev)
		}
	}
}

func sameLayout(a, b fieldSet) bool {
	as, bs := a.sorted(), b.sorted()
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i].lo != bs[i].lo || as[i].width != bs[i].width {
			return false
		}
	}
	return true
}

// docBitsRx matches "bits 14:8" style field documentation.
var docBitsRx = regexp.MustCompile(`bits\s+(\d+):(\d+)`)

// checkDocBits cross-checks "bits H:L" claims in a function's doc
// comment against the fields its body actually manipulates. Functions
// without extracted fields (wrappers, delegating helpers) are skipped.
func checkDocBits(pass *analysis.Pass, fd *ast.FuncDecl, fields fieldSet) {
	if fd.Doc == nil || len(fields) == 0 {
		return
	}
	for _, m := range docBitsRx.FindAllStringSubmatch(fd.Doc.Text(), -1) {
		hi, err1 := strconv.Atoi(m[1])
		lo, err2 := strconv.Atoi(m[2])
		if err1 != nil || err2 != nil || hi < lo {
			continue
		}
		found := false
		for _, f := range fields {
			if f.lo == lo && f.lo+f.width-1 == hi {
				found = true
				break
			}
		}
		if !found {
			pass.Reportf(fd.Pos(), "%s documents bits %d:%d but the body manipulates %s; doc and mask/shift constants disagree",
				fd.Name.Name, hi, lo, fields.layout())
		}
	}
}
