"""The writers of the JSON and CSV documents the package prints.

Every JSON document is the text of ``json.dumps(doc, indent=2,
sort_keys=True)``, so equal documents are equal bytes.  The small ones
(the character, centre, ideal and Weyl documents of the CLI) go through
``json_document``.  The strata document, which has one object per pair
and one list per covering edge and reaches tens of megabytes on E6, goes
through ``strata_document``, which writes those exact bytes by template
without building the dict-of-dicts.  Every CSV document goes through
``csv_text``.
"""

import csv
import io
import json
from json.encoder import encode_basestring_ascii

# One pair and one edge as json.dumps(indent=2, sort_keys=True) lays them
# out two levels deep: each item on a line of its own, indented by two
# spaces per level and led by the "," that separates it from the item
# before, ": " after a key, and the keys of a pair in sorted order.
_PAIR = ',\n    {\n      "rank": %d,\n      "y": %s,\n      "z": %s\n    }'
_EDGE = ",\n    [\n      %d,\n      %d\n    ]"


def json_document(doc):
    """The text of one JSON document: two-space indents and sorted keys,
    so equal documents are equal bytes."""
    return json.dumps(doc, indent=2, sort_keys=True)


def csv_text(header, rows):
    """The text ``csv.writer`` gives the header row and then each row,
    every line ended by a bare newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _extend_list(out, items):
    """Append a JSON list of comma-led items to ``out``: the first item
    loses its comma, and an empty list is ``[]`` on one line, as
    json.dumps writes it."""
    start = len(out)
    out.extend(items)
    if len(out) == start:
        out.append("[]")
    else:
        out[start] = "[" + out[start][1:]
        out.append("\n  ]")


def strata_document(schema, label, anchor, texts, pairs, edges):
    """The bytes ``json_document`` gives the strata document
    ``{"schema", "type", "anchor", "pairs": [{"y", "z", "rank"}],
    "edges": [[i, j]]}``, for ``texts`` a mapping from element keys to
    their word strings, ``pairs`` as (rank, y, z) triples with y and z
    keys of ``texts``, ``edges`` as (i, j) pairs of ints and ``anchor`` a
    string or None; ``pairs`` and ``edges`` are read once, in order.
    The top-level keys are written in sorted order.  Strings go through
    ``encode_basestring_ascii``, json.dumps' own escaping under its
    default ``ensure_ascii``, once per entry of ``texts``, and ints
    through ``%d``, which spells an int as json.dumps does.  The pieces
    are joined once."""
    string = encode_basestring_ascii
    quoted = {key: string(text) for key, text in texts.items()}
    out = ['{\n  "anchor": ', "null" if anchor is None else string(anchor),
           ',\n  "edges": ']
    _extend_list(out, map(_EDGE.__mod__, edges))
    out.append(',\n  "pairs": ')
    _extend_list(out, (_PAIR % (rank, quoted[y], quoted[z])
                       for rank, y, z in pairs))
    out.append(',\n  "schema": %s,\n  "type": %s\n}'
               % (string(schema), string(label)))
    return "".join(out)
