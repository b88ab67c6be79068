"""Checkpoint serialization: a self-describing JSON document.

A v2 checkpoint stores each parameter array (m, eta, omega, xi) as one
string: the standard padded base64 of its little-endian float64 values in C
order, with eta dense and its shape in eta_shape.  So numeric state survives
save/load bitwise (-0.0 and subnormals included), and a save or load costs a
pass over the bytes, not a Python object per entry.  The byte stream is
deterministic (sorted keys, fixed separators), so identical runs give
identical files.  v1 checkpoints, which stored the arrays as JSON numbers
and eta as one [v, s, t, value] list per nonzero entry, still load.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .corpus import Gender, GenderLexicon, LexiconEntry, Number, Relation
from .errors import DataError
from .model import FeatureSpace, ModelParams, TrainConfig

FORMAT = "genderedlang-checkpoint-v2"
_V1 = "genderedlang-checkpoint-v1"

# Settings that older checkpoints carry in "config" and nothing reads any
# more: the former Adam optimizer's, the training seed, and n_sentiments,
# which beta now decides.  Loading accepts and ignores them.
_RETIRED = {"learning_rate", "adam_beta1", "adam_beta2", "adam_epsilon", "window", "seed",
            "n_sentiments"}
_CONFIG_KEYS = {f.name for f in fields(TrainConfig)}
# The types of a JSON number; matched by type(), since JSON true/false load as bool, an int subclass.
_NUMBERS = (int, float)


@dataclass
class Checkpoint:
    params: ModelParams
    space: FeatureSpace
    relation: str


def _encode(array: np.ndarray) -> str:
    """Base64 of the array's little-endian float64 values in C order."""
    return base64.b64encode(np.asarray(array, dtype="<f8").tobytes()).decode("ascii")


def _space_payload(space: FeatureSpace) -> dict:
    forms = {form: [entry.lemma, entry.gender.value, entry.number.value]
             for form, entry in space.entries.items()}
    return {"lemmas": list(space.lemmas), "forms": forms}


def _space_from_payload(payload: dict) -> FeatureSpace:
    entries = {form: LexiconEntry(lemma, Gender(gender), Number(number))
               for form, (lemma, gender, number) in payload["forms"].items()}
    space = FeatureSpace.from_lexicon(GenderLexicon(entries=entries))
    if space.lemmas != tuple(payload["lemmas"]):
        raise DataError("space lemmas must be sorted and distinct, and be the lemmas of its forms")
    return space


def save_checkpoint(path: str | Path, params: ModelParams, space: FeatureSpace,
                    config: TrainConfig, fingerprint: str, relation: str,
                    extra: dict | None = None) -> None:
    doc = {
        "format": FORMAT,
        "relation": relation,
        "fingerprint": fingerprint,
        "config": asdict(config),
        "space": _space_payload(space),
        "vocab": list(params.vocab),
        "forms": list(params.forms),
        "m": _encode(params.m),
        "eta_shape": list(params.eta.shape),
        "eta": _encode(params.eta),
        "omega": _encode(params.omega),
        "xi": _encode(params.xi),
        "extra": extra or {},
    }
    with Path(path).open("w", encoding="utf-8") as out:  # streamed: no whole-text copy
        json.dump(doc, out, sort_keys=True, separators=(",", ":"))
        out.write("\n")


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; any malformed or inconsistent document is a DataError."""
    try:
        return _from_doc(json.loads(Path(path).read_text(encoding="utf-8")))
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except (json.JSONDecodeError, RecursionError) as err:
        raise DataError(f"{path}: not a valid checkpoint: {err}") from None
    except DataError as err:
        raise DataError(f"{path}: {err}") from None
    except KeyError as err:
        raise DataError(f"{path}: malformed checkpoint: missing key {err}") from None
    except (AttributeError, IndexError, OverflowError, TypeError, ValueError) as err:
        raise DataError(f"{path}: malformed checkpoint: {err}") from None


def _float_array(name: str, values) -> np.ndarray:
    """A JSON array (of arrays) of numbers as floats; a boolean or string is a DataError."""
    array = np.array(values, dtype=object)
    if not all(type(x) in _NUMBERS for x in array.flat):
        raise DataError(f"non-numeric value in {name}")
    return array.astype(float)


def _decode(name: str, text, shape: tuple[int, ...]) -> np.ndarray:
    """A v2 array string as a native float64 array of the given shape."""
    if not isinstance(text, str):
        raise DataError(f"{name} is not a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as err:  # binascii.Error, or a non-ASCII character
        raise DataError(f"{name} is not valid base64: {err}") from None
    if len(raw) != 8 * math.prod(shape):
        raise DataError(f"{name} holds {len(raw)} bytes, not the {8 * math.prod(shape)} "
                        f"of float64 shape {list(shape)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)


def _eta_from_triplets(triplets: list, shape: tuple[int, ...]) -> np.ndarray:
    """A v1 eta: one [v, s, t, value] list per nonzero entry."""
    eta = np.zeros(shape)
    for v, s, t, value in triplets:
        if not (type(v) is type(s) is type(t) is int and type(value) in _NUMBERS):
            raise DataError(f"eta entry {[v, s, t, value]} is not three integers and a number")
        if not (0 <= v < shape[0] and 0 <= s < shape[1] and 0 <= t < shape[2]):
            raise DataError(f"eta index {[v, s, t]} outside eta_shape {list(shape)}")
        eta[v, s, t] = value
    if len({(v, s, t) for v, s, t, _ in triplets}) < len(triplets):  # saved once each
        raise DataError("an eta index is given more than once")
    return eta


def _from_doc(doc: dict) -> Checkpoint:
    v2 = doc.get("format") == FORMAT
    if not v2 and doc.get("format") != _V1:
        raise DataError(f"unrecognized checkpoint format {doc.get('format')!r}")
    names = set(doc["config"])  # nothing reads the config back, so only its key names are checked
    for problem, keys in (("unknown", names - _CONFIG_KEYS - _RETIRED),
                          ("missing", _CONFIG_KEYS - names)):
        if keys:
            raise DataError(f"{problem} config key(s) {', '.join(sorted(keys))}")
    space = _space_from_payload(doc["space"])
    vocab, forms = tuple(doc["vocab"]), tuple(doc["forms"])
    if (not all(isinstance(w, str) for w in vocab + forms) or len(set(vocab)) < len(vocab)
            or len(set(forms)) < len(forms) or not set(forms) <= space.form_bits.keys()):
        raise DataError("vocab and forms must be distinct strings, every form in the feature space")
    shape = tuple(doc["eta_shape"])
    if v2:
        if len(shape) != 3 or not all(type(n) is int and n >= 0 for n in shape):
            raise DataError(f"eta_shape {list(shape)} is not three non-negative integers")
        m, omega, xi = (_decode(name, doc[name], expected) for name, expected in (
            ("m", (len(vocab),)), ("omega", (len(forms), shape[1])), ("xi", (len(forms),))))
    else:
        m, omega, xi = (_float_array(name, doc[name]) for name in ("m", "omega", "xi"))
    if (len(shape) != 3 or shape[0] != len(vocab) or shape[1] not in (1, 3)
            or shape[2] != space.dim or m.shape != (len(vocab),)
            or omega.shape != (len(forms), shape[1]) or xi.shape != (len(forms),)):
        raise DataError(f"eta_shape {list(shape)} disagrees with the vocab, forms, m, omega, "
                        f"xi or feature space (dimension {space.dim})")
    eta = _decode("eta", doc["eta"], shape) if v2 else _eta_from_triplets(doc["eta"], shape)
    for name, values in (("m", m), ("eta", eta), ("omega", omega), ("xi", xi)):
        if not np.isfinite(values).all():
            raise DataError(f"non-finite value in {name}")
    return Checkpoint(
        params=ModelParams(vocab=vocab, forms=forms, m=m, eta=eta, omega=omega, xi=xi),
        space=space,
        relation=Relation(doc["relation"]).value,
    )
