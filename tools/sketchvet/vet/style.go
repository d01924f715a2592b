package vet

// Style analyzers, so CI has one analysis entry point over the whole
// module: gofmt (every file, tests included, must match canonical
// formatting) and doccomment (every exported identifier must carry a
// doc comment).

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Gofmt returns the formatting analyzer: every .go file of the package,
// _test.go files included, must be gofmt-clean.
func Gofmt() *Analyzer {
	return &Analyzer{
		Name: "gofmt",
		Doc:  "every file (tests included) must be gofmt-clean",
		Run: func(_ *Context, pkg *Package) []Finding {
			var out []Finding
			for _, path := range pkg.AllGoFiles {
				src, err := os.ReadFile(path)
				if err != nil {
					out = append(out, findingAt("gofmt", path, 1, err.Error()))
					continue
				}
				dirty, err := unformatted(src)
				if err != nil {
					out = append(out, findingAt("gofmt", path, 1, err.Error()))
					continue
				}
				if dirty {
					out = append(out, findingAt("gofmt", path, 1, "not gofmt-clean"))
				}
			}
			return out
		},
	}
}

// unformatted reports whether src differs from its canonical gofmt
// rendering.
func unformatted(src []byte) (bool, error) {
	formatted, err := format.Source(src)
	if err != nil {
		return false, err
	}
	return !bytes.Equal(src, formatted), nil
}

// DocComment returns the doc-comment analyzer: every exported
// identifier (and method on an exported type) needs a doc comment so go
// doc output stays usable as API reference.
func DocComment() *Analyzer {
	return &Analyzer{
		Name: "doccomment",
		Doc:  "every exported identifier must carry a doc comment",
		Run: func(_ *Context, pkg *Package) []Finding {
			var out []Finding
			for _, file := range pkg.Files {
				out = append(out, docIssues(pkg.Fset, file)...)
			}
			return out
		},
	}
}

// docIssues returns a finding for every undocumented exported
// identifier in one parsed file, named "func F", "method (*T).M",
// "type T", "const C" or "var V". A doc comment on a grouped
// const/var/type declaration covers all of its specs, matching godoc
// rendering.
func docIssues(fset *token.FileSet, file *ast.File) []Finding {
	var out []Finding
	report := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		out = append(out, findingAt("doccomment", p.Filename, p.Line, "missing doc comment: "+name))
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedReceiver(d) {
				continue
			}
			if d.Doc == nil {
				report(d.Pos(), docFuncName(d))
			}
		case *ast.GenDecl:
			docGenDecl(d, report)
		}
	}
	return out
}

// docGenDecl checks const/var/type declarations for missing docs.
func docGenDecl(d *ast.GenDecl, report func(token.Pos, string)) {
	if d.Tok == token.IMPORT {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type "+s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.Name == "_" || !name.IsExported() {
					continue
				}
				if d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(name.Pos(), d.Tok.String()+" "+name.Name)
				}
			}
		}
	}
}

// exportedReceiver reports whether f is a plain function or a method on
// an exported type (methods on unexported types are not API surface).
func exportedReceiver(f *ast.FuncDecl) bool {
	if f.Recv == nil || len(f.Recv.List) == 0 {
		return true
	}
	t := f.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// docFuncName renders "func Name" or "method (*Recv).Name".
func docFuncName(f *ast.FuncDecl) string {
	if f.Recv == nil || len(f.Recv.List) == 0 {
		return "func " + f.Name.Name
	}
	var b strings.Builder
	b.WriteString("method (")
	t := f.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		b.WriteString("*")
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		b.WriteString(id.Name)
	}
	b.WriteString(").")
	b.WriteString(f.Name.Name)
	return b.String()
}

// findingAt builds a Finding from a raw file/line position, for checks
// that operate outside a token.FileSet (whole-file formatting).
func findingAt(analyzer, file string, line int, message string) Finding {
	file = filepath.ToSlash(file)
	return Finding{
		Analyzer: analyzer,
		Pos:      file + ":" + strconv.Itoa(line),
		Message:  message,
		file:     file,
		line:     line,
	}
}
