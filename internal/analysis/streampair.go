package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// NewStreamPair builds the stream-pairing check: every gpusim kernel
// launch or async copy enqueued on a stream must be followed, later in
// the same function, by a synchronization point — Device.Synchronize, or
// Stream.TailUS/Record on the launched timeline. Helper functions that
// intentionally leave synchronization to their caller document that with
// a //texlint:ignore streampair escape hatch on the declaration.
func NewStreamPair() *Analyzer {
	return &Analyzer{
		Name: "streampair",
		Doc:  "every gpusim launch/async copy is followed by a reachable stream sync in the same function",
		Run:  perPackage(nil, runStreamPair),
	}
}

const gpusimPath = "internal/gpusim"

// launchMethods enqueue asynchronous work on a *gpusim.Stream.
var launchMethods = map[string]bool{
	"Gemm": true, "Top2Scan": true, "InsertionSort": true, "Elementwise": true,
	"BaselineMatch": true, "CopyH2D": true, "CopyD2H": true, "HostPost": true,
}

// syncMethods observe or wait for a timeline's completion.
var syncStreamMethods = map[string]bool{"TailUS": true, "Record": true}

func runStreamPair(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, fd := range funcDecls(pass) {
		type launch struct {
			call *ast.CallExpr
			name string
		}
		var launches []launch
		var syncPos []ast.Node
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Pkg, call)
			if fn == nil {
				return true
			}
			switch {
			case isStreamMethod(fn, launchMethods):
				launches = append(launches, launch{call, fn.Name()})
			case isStreamMethod(fn, syncStreamMethods),
				isMethodOf(fn, gpusimPath, "Synchronize"):
				syncPos = append(syncPos, call)
			}
			return true
		})
		for _, l := range launches {
			synced := false
			for _, s := range syncPos {
				if s.Pos() > l.call.Pos() {
					synced = true
					break
				}
			}
			if !synced {
				diags = append(diags, Diagnostic{
					Pos:   pass.Fset.Position(l.call.Pos()),
					Check: "streampair",
					Message: fmt.Sprintf("%s enqueues async work with no later sync in this function; "+
						"add Device.Synchronize/Stream.TailUS, or //texlint:ignore streampair on the declaration if the caller synchronizes", l.name),
				})
			}
		}
	}
	return diags
}

// isStreamMethod reports whether fn is a *gpusim.Stream method named in set.
func isStreamMethod(fn *types.Func, set map[string]bool) bool {
	if fn == nil || !set[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedTypeIn(sig.Recv().Type(), gpusimPath, "Stream")
}
