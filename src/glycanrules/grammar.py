"""Text formats: dataset files, rule files, canonical serialization, DOT.

Dataset grammar (UTF-8, statements separated by ';' or newline, '#' comments):

    sugar <name> <arity>
    mol   <tree>

    <tree> ::= <name> | <name> "(" <slot> ("," <slot>)* ")"
    <slot> ::= <tree> | "_"

The slot count of a parenthesised node must equal the declared arity; a bare
leaf omits parentheses.  Rule files reuse the tree grammar with one node
prefixed by "*" (the expand root), "!" for empty slots that must stay empty at
application time, and optional trailing "@comp=<int>" / "@fast" attributes.
Arities and compartment numbers are ASCII numerals, `[0-9]+`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    ArityError,
    Dataset,
    DuplicateMoleculeError,
    Molecule,
    Monomer,
    MonomerAlphabet,
    Rule,
    TreeNode,
    UnknownMonomerError,
    tree_positions,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass
class _Token:
    kind: str  # name | int | punct
    text: str
    line: int
    col: int


_PUNCT = set("(),_*!;@=")


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            tokens.append(_Token("punct", ";", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        # str.isdigit() would also take "²" and "١", which int() refuses or
        # reads as a digit
        if "0" <= ch <= "9":
            start = i
            while i < n and "0" <= text[i] <= "9":
                i += 1
            tokens.append(_Token("int", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalnum() or ch == "'":
            start = i
            while i < n and (text[i].isalnum() or text[i] in "_'"):
                i += 1
            tokens.append(_Token("name", text[start:i], line, col))
            col += i - start
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("punct", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok


def _parse_tree(cur: _Cursor, alphabet: MonomerAlphabet, allow_marks: bool):
    """Returns (TreeNode, expand_path or None, hard_end list of (path, slot))."""
    star = False
    tok = cur.peek()
    if allow_marks and tok is not None and tok.text == "*":
        cur.next()
        star = True
        tok = cur.peek()
    if tok is None or tok.kind != "name":
        where = tok or _Token("punct", "", 1, 1)
        raise ParseError("expected a monomer name", where.line, where.col)
    cur.next()
    name = tok.text
    if name not in alphabet:
        raise UnknownMonomerError(f"{tok.line}:{tok.col}: unknown monomer {name!r}")
    arity = alphabet.arity(name)
    children: list[Optional[TreeNode]] = [None] * arity
    expand_path = () if star else None
    hard_ends = []
    nxt = cur.peek()
    if nxt is not None and nxt.text == "(":
        cur.next()
        slot = 1
        while True:
            stok = cur.peek()
            if stok is None:
                raise ParseError("unterminated slot list", tok.line, tok.col)
            if stok.text == "_":
                cur.next()
            elif stok.text == "!" and allow_marks:
                cur.next()
                hard_ends.append(((), slot))
            else:
                sub, sub_expand, sub_hard = _parse_tree(cur, alphabet, allow_marks)
                if slot > arity:
                    raise ArityError(
                        f"{stok.line}:{stok.col}: slot {slot} exceeds arity "
                        f"{arity} of {name!r}"
                    )
                children[slot - 1] = sub
                if sub_expand is not None:
                    if expand_path is not None:
                        raise ParseError(
                            "more than one expand marker", stok.line, stok.col
                        )
                    expand_path = (slot,) + sub_expand
                hard_ends.extend(((slot,) + p, s) for p, s in sub_hard)
            closer = cur.next()
            if closer.text == ")":
                break
            if closer.text != ",":
                raise ParseError(
                    f"expected ',' or ')', found {closer.text!r}",
                    closer.line,
                    closer.col,
                )
            slot += 1
        if slot != arity:
            raise ArityError(
                f"{tok.line}:{tok.col}: {name!r} lists {slot} slots, "
                f"declared arity is {arity}"
            )
    return TreeNode(name, tuple(children)), expand_path, hard_ends


def _skip_separators(cur: _Cursor):
    while (tok := cur.peek()) is not None and tok.text == ";":
        cur.next()


def parse_dataset(text: str) -> Dataset:
    tokens = _tokenize(text)
    cur = _Cursor(tokens)
    monomers: list[Monomer] = []
    molecules: list[Molecule] = []
    alphabet: Optional[MonomerAlphabet] = None
    _skip_separators(cur)
    while cur.peek() is not None:
        tok = cur.next()
        if tok.text == "sugar":
            if molecules:
                raise ParseError("sugar declarations must precede molecules",
                                 tok.line, tok.col)
            name_tok = cur.next()
            if name_tok.kind != "name":
                raise ParseError("expected a monomer name", name_tok.line, name_tok.col)
            arity_tok = cur.next()
            if arity_tok.kind != "int":
                raise ParseError("expected an arity", arity_tok.line, arity_tok.col)
            monomers.append(Monomer(name_tok.text, int(arity_tok.text)))
            alphabet = None
        elif tok.text == "mol":
            if alphabet is None:
                alphabet = MonomerAlphabet(monomers)
            tree, expand, hard = _parse_tree(cur, alphabet, allow_marks=False)
            mol = Molecule(tree)
            if mol in molecules:
                raise DuplicateMoleculeError(
                    f"{tok.line}:{tok.col}: duplicate molecule {serialize_molecule(mol)}"
                )
            molecules.append(mol)
        else:
            raise ParseError(f"expected 'sugar' or 'mol', found {tok.text!r}",
                             tok.line, tok.col)
        _skip_separators(cur)
    if alphabet is None:
        alphabet = MonomerAlphabet(monomers)
    return Dataset(alphabet, tuple(molecules))


def parse_molecule(text: str, alphabet: MonomerAlphabet) -> Molecule:
    cur = _Cursor(_tokenize(text))
    tree, _, _ = _parse_tree(cur, alphabet, allow_marks=False)
    _skip_separators(cur)
    if cur.peek() is not None:
        tok = cur.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return Molecule(tree)


def parse_rule(text: str, alphabet: MonomerAlphabet) -> Rule:
    cur = _Cursor(_tokenize(text))
    rule = _parse_rule_at(cur, alphabet)
    _skip_separators(cur)
    if cur.peek() is not None:
        tok = cur.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return rule


def _parse_rule_at(cur: _Cursor, alphabet: MonomerAlphabet) -> Rule:
    first = cur.peek()
    tree, expand, hard = _parse_tree(cur, alphabet, allow_marks=True)
    if expand is None or expand == ():
        where = first or _Token("punct", "", 1, 1)
        raise ParseError("rule needs exactly one non-root '*' node", where.line, where.col)
    compartment = 1
    fast = False
    while (tok := cur.peek()) is not None and tok.text == "@":
        cur.next()
        attr = cur.next()
        if attr.text == "comp":
            cur.expect("=")
            val = cur.next()
            if val.kind != "int":
                raise ParseError("expected a compartment number", val.line, val.col)
            compartment = int(val.text)
        elif attr.text == "fast":
            fast = True
        else:
            raise ParseError(f"unknown attribute {attr.text!r}", attr.line, attr.col)
    return Rule(tree, expand, frozenset(hard), compartment, fast)


def parse_rules(text: str, alphabet: MonomerAlphabet) -> list[Rule]:
    """Parse a standalone rule file: one rule per ';'/newline-separated statement."""
    cur = _Cursor(_tokenize(text))
    rules = []
    _skip_separators(cur)
    while cur.peek() is not None:
        rules.append(_parse_rule_at(cur, alphabet))
        _skip_separators(cur)
    return rules


def _serialize_tree(node: TreeNode, path, expand_path, hard_ends) -> str:
    mark = "*" if expand_path is not None and path == expand_path else ""
    if all(k is None for k in node.children):
        if not any(p == path for p, _ in hard_ends):
            return mark + node.label
    slots = []
    for slot in range(1, len(node.children) + 1):
        kid = node.children[slot - 1]
        if kid is None:
            slots.append("!" if (path, slot) in hard_ends else "_")
        else:
            slots.append(_serialize_tree(kid, path + (slot,), expand_path, hard_ends))
    if not slots:
        return mark + node.label
    return f"{mark}{node.label}({', '.join(slots)})"


def serialize_molecule(m: Molecule) -> str:
    """Canonical text: slots in ascending order, '_' for empty, bare leaves."""
    return _serialize_tree(m.root, (), None, frozenset())


def serialize_rule(r: Rule) -> str:
    text = _serialize_tree(r.root, (), r.expand_path, r.hard_ends)
    if r.compartment != 1:
        text += f" @comp={r.compartment}"
    if r.fast:
        text += " @fast"
    return text


def serialize_dataset(d: Dataset) -> str:
    lines = [f"sugar {m.name} {m.arity}" for m in d.alphabet]
    lines.extend(f"mol {serialize_molecule(mol)}" for mol in d.molecules)
    return "\n".join(lines) + "\n"


def serialize_rules(rules) -> str:
    return "".join(serialize_rule(r) + "\n" for r in rules)


def molecule_to_dot(m: Molecule, name: str = "molecule") -> str:
    """One digraph per molecule; all nodes drawn as ellipses."""
    return _to_dot(m.root, name, lambda path: "ellipse")


def rule_to_dot(r: Rule, name: str = "rule") -> str:
    """Expand nodes are boxes, matching nodes ellipses."""

    def shape(path):
        return "box" if r.situation(path) == "expand" else "ellipse"

    extra = []
    for path, slot in sorted(r.hard_ends):
        nid = "he_" + "_".join(map(str, path + (slot,)))
        parent = "n" + "_".join(map(str, path))
        extra.append(f'  {nid} [label="!", shape=none];')
        extra.append(f'  {parent} -> {nid} [style=dotted, label="{slot}"];')
    return _to_dot(r.root, name, shape, extra)


def _to_dot(root: TreeNode, name: str, shape_fn, extra_lines=None) -> str:
    lines = [f"digraph {name} {{"]
    for path, node in sorted(tree_positions(root)):
        nid = "n" + "_".join(map(str, path))
        lines.append(f'  {nid} [label="{node.label}", shape={shape_fn(path)}];')
    for path, node in sorted(tree_positions(root)):
        nid = "n" + "_".join(map(str, path))
        for slot in range(1, len(node.children) + 1):
            if node.children[slot - 1] is not None:
                kid_id = "n" + "_".join(map(str, path + (slot,)))
                lines.append(f'  {nid} -> {kid_id} [label="{slot}"];')
    if extra_lines:
        lines.extend(extra_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"
