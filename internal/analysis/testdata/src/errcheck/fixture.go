// Package errs is errcheck's test fixture, loaded under
// "fix/internal/errs".
package errs

import (
	"fmt"
	"os"
	"strings"
)

func fallible() error { return nil }

func fallibleVal() (int, error) { return 0, nil }

func dropped() {
	fallible()       // want `result of fallible includes an error that is dropped`
	fallibleVal()    // want `result of fallibleVal includes an error that is dropped`
	defer fallible() // want `result of fallible includes an error that is dropped`
}

func droppedInGoroutine() {
	go fallible() // want `result of fallible includes an error that is dropped`
}

func handled() error {
	if err := fallible(); err != nil {
		return err
	}
	_ = fallible() // explicit discard is the sanctioned spelling
	v, _ := fallibleVal()
	_ = v
	return nil
}

// exemptWrites: fmt into Builder/Buffer cannot fail, console printing
// is best-effort.
func exemptWrites() string {
	var b strings.Builder
	fmt.Fprintf(&b, "x=%d", 1)
	b.WriteString("ok")
	fmt.Println("done")
	return b.String()
}

func nonExemptWriter(f *os.File) {
	fmt.Fprintf(f, "x=%d", 1) // want `result of fmt\.Fprintf includes an error that is dropped`
}
