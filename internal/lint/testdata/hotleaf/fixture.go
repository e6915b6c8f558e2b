// Package fixture exercises hotpathalloc's configured hot leaves: methods
// named in the ExtraRoots table are tick-path roots even though nothing in
// their own package roots them structurally — the cross-package shape of
// mem.GlobalBuffer.Read and friends. A configured leaf that names no
// declaration (Leaf.Gone) is itself a finding, at the package clause.
package fixture // want `configured hot leaf Leaf.Gone matches no declaration in repro/internal/lint/testdata/hotleaf`

type Leaf struct{ buf []byte }

func (l *Leaf) Touch() {
	l.buf = append(l.buf, 0) // want `append \(may grow the backing array\) on the per-tick path \(reachable from Leaf.Touch \(configured hot leaf\)\)`
}

func (l *Leaf) Unlisted() {
	l.buf = append(l.buf, 0) // not configured as a root: ok
}
