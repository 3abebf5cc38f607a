package layout

// ParseXML is Parse through encoding/xml alone: the reference the one-pass
// scanner is held to.
var ParseXML = parseXML

// MaxDepth is how deeply the one-pass scanner follows nested elements.
const MaxDepth = maxDepth

// Scanned reports whether Parse accepts src through the one-pass scanner,
// without falling back to encoding/xml.
func Scanned(name, src string) bool {
	root := scan(src)
	return root != nil && validate(name, root, true) == nil
}
