package fixture

import (
	"errors"
	"os"
)

func mayFail() error { return errors.New("boom") }

func openAndSize(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	f.Close() // want "error result of f.Close is dropped"
	return st.Size(), nil
}

func droppedCall() {
	mayFail() // want "error result of mayFail is dropped"
}

func droppedMultiValue() {
	os.Open("nope") // want "error result of os.Open is dropped"
}

func droppedInGoroutine() {
	go mayFail() // want "error result of mayFail is dropped"
}

func droppedInDeferredClosure(path string) {
	defer func() {
		os.Remove(path) // want "error result of os.Remove is dropped"
	}()
}
