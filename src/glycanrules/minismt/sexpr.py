"""Minimal SMT-LIB2 s-expression reader.

Forms become nested Python tuples; symbols and keywords are strings, numerals
(ASCII `-?[0-9]+`) ints, and string literals ('"', text) pairs.  Whitespace is
space, tab, CR and LF.  The reader is incremental: feed it chunks of text and
it yields complete top-level forms.

Both the tokenizer and `Reader.feed` work on runs of text with C string
methods and go character by character only where a string literal ("..."),
a comment (; to end of line) or a quoted symbol (|...|) needs it: the
tokenizer splits each run between those with `str.replace` and `str.split`,
`_PIECE` characters at a time, and `feed` counts the parentheses of a buffer
that holds none of them with `str.count`.
"""

from __future__ import annotations


class SexprError(ValueError):
    pass


# the tokens of '(' and ')': no symbol contains '|', so a quoted symbol such
# as |(| is never taken for one
OPEN, CLOSE = "|(", "|)"
_PIECE = 4096  # bounds the copies and token lists a long line costs at once


def tokenize(text: str):
    """Yield the tokens of `text`: OPEN, CLOSE, symbols, ints and ('"', text)."""
    i, n = 0, len(text)
    # the next index of each special character (n if none); each search
    # starts past the last, so finding them costs one pass per character
    at = {'"': -1, ";": -1, "|": -1}
    while i < n:
        for ch, k in at.items():
            if k < i:
                k = text.find(ch, i)
                at[ch] = n if k == -1 else k
        j = min(at.values())
        while i < j:
            # plain text a piece at a time, so a long line is not copied and
            # split whole; a piece ends at a space, which no token spans
            k = j if j - i <= _PIECE else text.find(" ", i + _PIECE, j) + 1 or j
            run = (text[i:k].replace("(", " |( ").replace(")", " |) ")
                   .replace("\t", " ").replace("\r", " ").replace("\n", " "))
            for tok in run.split(" "):
                if tok:
                    # int() would also take "²", "٣" and "--5"
                    if (tok.isdigit() or tok[0] == "-" and tok[1:].isdigit()) \
                            and tok.isascii():
                        yield int(tok)
                    else:
                        yield tok
            i = k
        if j == n:
            break
        ch = text[j]
        if ch == ";":
            i = text.find("\n", j)
            if i == -1:
                break
        elif ch == "|":
            i = text.find("|", j + 1)
            if i == -1:
                raise SexprError("unterminated quoted symbol")
            yield text[j + 1 : i]
            i += 1
        else:
            parts = []
            i = j + 1
            while True:
                k = text.find('"', i)
                if k == -1:
                    raise SexprError("unterminated string literal")
                parts.append(text[i:k])
                if text.startswith('"', k + 1):  # "" stands for one '"'
                    parts.append('"')
                    i = k + 2
                else:
                    break
            yield ('"', "".join(parts))
            i = k + 1


def parse_all(text: str):
    """Parse every complete form in `text` (raises on trailing garbage)."""
    stack = []
    top = []
    for tok in tokenize(text):
        if tok == OPEN:
            stack.append(top)
            top = []
        elif tok == CLOSE:
            if not stack:
                raise SexprError("unbalanced ')'")
            done = tuple(top)
            top = stack.pop()
            top.append(done)
        else:
            top.append(tok)
    if stack:
        raise SexprError("unbalanced '('")
    return top


class Reader:
    """Accumulates text and releases complete top-level forms."""

    def __init__(self):
        self.buffer = ""

    def feed(self, chunk: str):
        buf = self.buffer = self.buffer + chunk
        if '"' in buf or ";" in buf or "|" in buf:
            end = self._scan(buf)
        else:
            closes = buf.count(")")
            if not closes:
                return []
            if buf.count("(") != closes:
                end = self._scan(buf)
            else:
                # balanced: unless a ')' falls below depth 0, which parsing
                # finds, the last ')' closes the last complete form
                end = buf.rfind(")") + 1
                try:
                    forms = parse_all(buf[:end])
                except SexprError:
                    end = self._scan(buf)
                else:
                    self.buffer = buf[end:]
                    return forms
        if end:
            self.buffer = buf[end:]
            return parse_all(buf[:end])
        return []

    @staticmethod
    def _scan(buf: str) -> int:
        """End of the last ')' that closes a top-level form, or 0."""
        depth = 0
        quote = ""  # the closing character of an open string, symbol or comment
        last_complete = 0
        i = 0
        n = len(buf)
        while i < n:
            ch = buf[i]
            if quote:
                if ch == quote:
                    if ch == '"' and i + 1 < n and buf[i + 1] == '"':
                        i += 1
                    else:
                        quote = ""
            elif ch == '"' or ch == "|":
                quote = ch
            elif ch == ";":
                quote = "\n"
            elif ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    last_complete = i + 1
            i += 1
        return last_complete
