"""Byte for byte regression of the path and complex commands.

Each case runs one command through ``cli.main`` on a seeded corpus loop and
compares the SHA-256 of its stdout, together with the exit code, against a
digest recorded before the path kernel gained its integer fast paths.
A speed-up of the path kernel must leave every output byte as it was; a
deliberate change of an output format updates the digests in the same
change and says why.

The cube and the wedge of three circles were added before the internal
join and the integer pole clamp: I^3 has boundary coordinates that the
contraction walk and the collar truncation strip through faces, and the
wedge loop of up to twelve excursions gives long words and trails.

The complex commands (``validate``, ``homology``, ``loop-homology`` and
``suspension``) are pinned the same way, with stderr hashed too, on stock
complexes, on complexes with degenerate faces and on mangled documents,
each also with every cube's face keys in reversed order: a change of the
loader keeps the whole violation list, its order and its text.

A long trail is pinned from committed files: ``tests/data/wedge3_loop47.json``
is the 47-letter loop ``bench/gen.make_loop(wedge_of_circles(3),
random.Random(47), 47, 3)["path"]`` and ``tests/data/wedge3.json`` its
complex.  Its ``contract`` trail, with the default five samples and with
seven, its ``straighten`` output, with five, seven and nine samples, its
``sec`` word, its ``path eval`` points at five times k/64 of its duration
215, and its ``path increase`` and ``path phi`` outputs are pinned; CI
hashes the console script's ``contract``, ``straighten``, ``sec``, ``path
eval``, ``path increase`` and ``path phi`` stdout on the same files.

``tests/data/sus_torus.json`` is ``dump_complex`` of
``suspension_model(torus_complex()).complex``, a document with degenerate
faces.  Its ``validate``, ``homology`` over Q and Z/3 and ``loop-homology
--degree 6`` outputs are pinned, and CI hashes the console script's
stdout of the same four commands.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from dirloop.cli import main
from dirloop.corpus import (
    circle_complex,
    interval_complex,
    point_complex,
    random_loop,
    torus_complex,
    two_component_complex,
    wedge_of_circles,
)
from dirloop.cubical import suspension_model, tensor_product
from dirloop.paths import Suspension
from dirloop.serialize import dump_complex, dump_path, rational_str

def _cube3():
    interval = interval_complex()
    return tensor_product(tensor_product(interval, interval), interval)


# name: (base, the most excursions a loop may have)
BASES = {
    "circle": (circle_complex, 3),
    "wedge2": (lambda: wedge_of_circles(2), 3),
    "torus": (torus_complex, 3),
    "cube3": (_cube3, 3),
    "wedge3-long": (lambda: wedge_of_circles(3), 12),
}
SEEDS = (1, 2)


def _commands(duration):
    return {
        "sec": ["sec"],
        "straighten": ["straighten", "--samples", "3"],
        "straighten-contract": ["straighten", "--contract"],
        "contract": ["contract"],
        "eval": ["path", "eval", "--t", rational_str(duration / 3)],
        "increase": ["path", "increase", "--eps", "1/4"],
        "increase-half": ["path", "increase", "--eps", "1/2"],
        "phi": ["path", "phi", "--side", "upper", "--t", "1/2"],
        "phi-lower-whole": ["path", "phi", "--side", "lower", "--t", "1"],
        "truncate": ["path", "truncate"],
        "truncate-delta": ["path", "truncate", "--delta", "1/8"],
    }


def _cases(tmp_path):
    for name, (make_base, max_runs) in BASES.items():
        sus = Suspension(make_base())
        complex_file = tmp_path / f"{name}.json"
        complex_file.write_text(json.dumps(dump_complex(sus.base)))
        for seed in SEEDS:
            loop = random_loop(sus, random.Random(seed), max_runs=max_runs)
            loop_file = tmp_path / f"{name}-{seed}.json"
            loop_file.write_text(json.dumps(dump_path(loop)))
            for label, (head, *rest) in _commands(loop.duration).items():
                if head == "path":
                    argv = [head, rest[0], str(loop_file), "--complex", str(complex_file), *rest[1:]]
                else:
                    argv = [head, str(loop_file), "--complex", str(complex_file), *rest]
                yield f"{name}/{seed}/{label}", argv


def _digest(capsys, argv) -> str:
    code = main(argv)
    out, _ = capsys.readouterr()
    return f"{code} {hashlib.sha256(out.encode('utf-8')).hexdigest()}"


GOLDEN = {
    "circle/1/sec": "0 d81624098aa645ab5847bb3947cee4f8fb80d5023e147e63f248bf10e2ccb3c1",
    "circle/1/straighten": "0 e25cd1ec390d2a996c2ff9c6340cac3490a62514df053e95aa32a371f988ba46",
    "circle/1/straighten-contract": "0 b22b358ad30812d5f168472e61886b2228e522d4d32f7a439fea4835c5094f1b",
    "circle/1/contract": "0 95c9ad63e2bcc9a96f3be4ec01653df2f72b79d36dba05f6db347a079050eb6d",
    "circle/1/eval": "0 591b1247651d622898f96a4e908a393c5b03929700f4956d12bacf3229bddf2c",
    "circle/1/increase": "0 eac255204bac26e1ac7664ef1841fcfee23165683d472b68ca4795d9bfbf2ff7",
    "circle/1/increase-half": "0 3a8235a5fd3308b53df913e1b07be04b0c80adad6428db0e4f26bd93d9bc42ac",
    "circle/1/phi": "0 d38c44d3fb04dc6ceabd77b55a368536333b3a1c603366c3bf5c5bfb487e8830",
    "circle/1/phi-lower-whole": "0 ba34dfe383bc45647c4b61c32e5dbc36161879fa15940c166cddf918024774b7",
    "circle/1/truncate": "0 3e0a55c8a17df660d1881a811ce918271edebe1650cdc0074d942f1dcb818065",
    "circle/1/truncate-delta": "0 001713a7b8c24a3e0b822fc4654d303764800f318a62c26fc163bb8d8417b716",
    "circle/2/sec": "0 ea084e725b44e6f8b550007917581e3ded37be7a3b85db5100ed6b1418a37128",
    "circle/2/straighten": "0 c38a67266454c04be5aa8e7f83d4011c11c4f6abbb7556358697aebe09c2e8c8",
    "circle/2/straighten-contract": "0 d73aa58bbd1dd5d589549e71ef37bf95ca830b1753a2ce786d5baf60b942dbe1",
    "circle/2/contract": "0 f2db8fb539249824847652834d8ab7c1abd1123f77fd3aa6ff7fef209ca24d34",
    "circle/2/eval": "0 8646a5c29dfdca60ce1825523ef5b506634b5509d02acb2ca96ff1cabdc312ba",
    "circle/2/increase": "0 c2d3d67f9a83dfd80b2d2d221e4199ec35eeb250b5fe7cb484a84e306e8e0639",
    "circle/2/increase-half": "0 293d402d2e4f898cc76d821eefb9a95a272d5c12a9ad24f11dd7847afea71dc3",
    "circle/2/phi": "0 990ac20bf65fecf44cff82769c81921b295890221f5e90098a26c8c0aedf5d05",
    "circle/2/phi-lower-whole": "0 11f3ca6dbaf5689c479f5c7ad12e7cc81462811d4c7aa58d738d5f1b83db0d42",
    "circle/2/truncate": "0 f96cb6590aebf8e7b3539c78bdc2192018a04269c384b7c04f45f3d97747f02d",
    "circle/2/truncate-delta": "0 23e3e0ebd566130172b9378fe0e0201b541bffccb00a2e68d2018d19a69a1bd4",
    "wedge2/1/sec": "0 1c27ace51f492d8043a1f646f0c9792030d71e4f733089f0eeca22ec496af496",
    "wedge2/1/straighten": "0 4f7473b52524b48b19fa805190e6a2ea9ace98b90671b77d5c439b5a9f369d4e",
    "wedge2/1/straighten-contract": "0 af514480388bf9a1c7692d9c5914b2491e74d9fbfdb610b68db385f41e823569",
    "wedge2/1/contract": "0 d629da290634bd50c36dc67844e2adad1e9ea097da4acb930e0e082c1bf739f2",
    "wedge2/1/eval": "0 6217abad0e063f89a95ab585de97b336700577b7629cdad593de099a1eeaadbc",
    "wedge2/1/increase": "0 02c899d8207031ae3ea5973d2b1fc4081c9d7875d0f445e3c02e3cc4ed76fc52",
    "wedge2/1/increase-half": "0 f04499be7c411ecab84a102c0b6482d79f5f66668bb81068d18dd4b7ac25d25b",
    "wedge2/1/phi": "0 26719474eda73071bfc0e15a7c5ec3c1630d82f2ae8570c0a99fdc07e3f0be42",
    "wedge2/1/phi-lower-whole": "0 f503f58ca2a97b9b47d2f1b40e6216fb030e50f1fcb4c31dbb2ce2c51ff9606d",
    "wedge2/1/truncate": "0 3b5a0847e4e8729aefeb7c72bcf38bde5d2285f820c2d790ed0d329916cae1a8",
    "wedge2/1/truncate-delta": "0 ef5a73b2f551fa33dd882926d3b6e620d0df41a5518498255c00e3867fcb1647",
    "wedge2/2/sec": "0 c97a8e528846081a6f4a7850d0df128633c574862990caeeb7e0f37002f79ee6",
    "wedge2/2/straighten": "0 a679c757497f85b0181732d85c5a90410629cd099bddaf33d8881a446401f772",
    "wedge2/2/straighten-contract": "0 5d4efc9d9b07a06cf92b57e4777d6124a68387220bb2e56ce8db6c5976202199",
    "wedge2/2/contract": "0 2573c2e4b26f1cd4c37d902b7a279fa9a9297e8ff80117907b2c88ba047d71c0",
    "wedge2/2/eval": "0 55082eafabf45502d7ead18c35000a1b34e535af7bc7bb89b2e4f0527e6c0de9",
    "wedge2/2/increase": "0 19d5c9fbc532cee7a886dcaa8e544154b74b818bb8cdd8d735b79c0286979013",
    "wedge2/2/increase-half": "0 15cfdb66be9dcabb65e0bf904353202f4f99255d4fa85429f434136e3649bcb6",
    "wedge2/2/phi": "0 03eeecde0ee4fd785c0b2f1748001f3ced7d1df0239d03134cc7e9cae0db19c8",
    "wedge2/2/phi-lower-whole": "0 e64a9e6827ccf47065aee3b7d1f5189000faebdf4a86ab9603c340155ec2913e",
    "wedge2/2/truncate": "0 5f1b76435656a40e01ab640a7bc722c298c97029df7a9eecd7ec8ceac875de27",
    "wedge2/2/truncate-delta": "0 3738f881d00b59cb93f6075223afa4ba0e5b7c45d37b2325d0323c3cc1436296",
    "torus/1/sec": "0 4d0b124577f37d356184fdd651324d4d9889427c77c590d59b0b6b87a37f6fe9",
    "torus/1/straighten": "0 143a01b7f53bf09b93d6105760a7c8d60d6beb6c2fb1c17408125cdae7a758e0",
    "torus/1/straighten-contract": "0 b4053a3f3840bd55cb11cc3719e5dbf9b5b1e11f8918010946a6c227532bca63",
    "torus/1/contract": "0 dcc3820f9afe62bcc3f23af8efb8dc37f566f211a5e3568611fb41a69e3359c6",
    "torus/1/eval": "0 7cc3e686b17f9344e236391c13956a1a73aa6819d3f63fd8a853801a4156dc50",
    "torus/1/increase": "0 1f7a4d6f7baa552d28b1329033c4e4cb12b699b433efb889bd74b38a8b07d805",
    "torus/1/increase-half": "0 cffeab4d1786db4f35c6fed09608b23838b77fa448795c4d20ade289b2bc4757",
    "torus/1/phi": "0 5954003106ad998708c2c554b283bbb06f74232285dff4be28707ae20db238d4",
    "torus/1/phi-lower-whole": "0 b855df04700233a22324e42fb812f90b4bd96d43d8348c8f9c88a89a8de1543e",
    "torus/1/truncate": "0 1441ac990b98be7a586df9fa877a68c19e56cdcdee9da7647837599e6d6571ea",
    "torus/1/truncate-delta": "0 9f209f48fecdda1246df8de8ef20d78f259a1b7594b6834366cda8f3b3a32e5d",
    "torus/2/sec": "0 a148d70de766dda42b37781d1702c54678fe3248239e91972b613b7ed18c93a2",
    "torus/2/straighten": "0 4e4e506658d33578641685d3d1a58b50d0997ed5b7edc44dc10256e49d483a3a",
    "torus/2/straighten-contract": "0 82fda0dfa282ae462849a2bb71b1ed3377ca01e336719439821e3020e21bb69e",
    "torus/2/contract": "0 fc11cb2bbfde32ecb8ac114d2511d5a3720c295c7f561abb8822afee1419525e",
    "torus/2/eval": "0 cdcb7a9c8feda203d42861db7fb6b09cc8ede9fb1ef412b0f537539f7c2b3f32",
    "torus/2/increase": "0 9226455a7d52adef391e723d68b61260c5f91db6bc15273cc81b42e3ac655247",
    "torus/2/increase-half": "0 59980c7b0d1e5fbed2868105d43068035cabcfcd5ae048d0889bbf4f136462ca",
    "torus/2/phi": "0 028d79a013b0a4e7ba5c2c3f486faa45047d71f826e63cbd41e242a2a6a29330",
    "torus/2/phi-lower-whole": "0 634c32fe6a21ab2819481d273405ae7bb2b6931b6bf290d61c25f7aaad89c340",
    "torus/2/truncate": "0 8a991a077dcd29d53e75673926d74c2d55a2630bd25d599a91ea9ca42fec4edb",
    "torus/2/truncate-delta": "0 d8ba68eae0ba2fa04efb87a429a3a2c7b6e2bc48e0e2e70fe6c9eba116101321",
    "cube3/1/sec": "0 74ab5f96c0f0d51f6c7b023ccfaa9fb06ee4f79e90742a1295dcaa86361a1104",
    "cube3/1/straighten": "0 55e544bced1edd8ddfc009926628e8ff5977bae384745610533068e9a918debf",
    "cube3/1/straighten-contract": "0 0b913510d9b33225410b56dc14a932e8f32c88ebdd2963e1afc7717332725178",
    "cube3/1/contract": "0 9abbd7fde09170ae82683282272fec058c05b3e7aaa599f2e0528db2d6b0088b",
    "cube3/1/eval": "0 58f5e9a694de12eea59e1c5803cc16f62ff3f46cb72f5bba1aa6616b965ab811",
    "cube3/1/increase": "0 15a8149bd627c40ca995d98135e2224fb95b0d755669d83a5fa2bc30d23ca0f7",
    "cube3/1/increase-half": "0 ea1715e4cad764d1a4b889a7b6b3055987c959b9b8fcfa41fbedf526b4487710",
    "cube3/1/phi": "0 4ef9365007df1b8b74323b9c445e322e45eedd6060b79b4bffc419e30c8ca4e5",
    "cube3/1/phi-lower-whole": "0 360670501f8a75281a6dae3caff64b11b9b306b00492876a5522a22a613072ce",
    "cube3/1/truncate": "0 aca923bf07f9885d12b6a9d944824e68a111ff3f0edddd5ee77e42d74fc2a775",
    "cube3/1/truncate-delta": "0 921c969ecf6e9e22212476c17d11cf34512700d418bf0e56c1eb2504007c2383",
    "cube3/2/sec": "0 ca1534c1226a7d2c9859b984eefb60bd4c4cc4131bf040d3ea8d02497b6dc194",
    "cube3/2/straighten": "0 ab7363eaca40bdc016e310d440ae9204a7587fa3949beb9e6e257d1a13f3e3e8",
    "cube3/2/straighten-contract": "0 8e2313697b4264246e153894844b87822dad30576ae01ad3fa9e669e50f685db",
    "cube3/2/contract": "0 134e3e068b88399ebfa915d2c48037785724b4c9c99274d922d3ced581611912",
    "cube3/2/eval": "0 aaa8571b45f2d92a1a2a8866ff528cb912d9eafab9881abd6316c67c8ca95f65",
    "cube3/2/increase": "0 af5571ed63e1113ff554b09842e888828f1a059841b41923dfd5631222acd9dd",
    "cube3/2/increase-half": "0 44f1f1e623accefad6a233980436b751cf1cc8c9a1e02e46aa8ac4c185bc0079",
    "cube3/2/phi": "0 9bff151fbb7202c2df36be96de96db3bd8241278bbcca726f9d15b0b361c1515",
    "cube3/2/phi-lower-whole": "0 d722f4a63932340edfde1f5ec657d36fae48af7d2d156a6cd69d5cf85a6c5e0d",
    "cube3/2/truncate": "0 dfd4af1f259dea355670e962219cad1d40c2b8104f96dca6d1265e234ada5d1c",
    "cube3/2/truncate-delta": "0 36b9d79cf64f23654194062099175a3abc6dccc894fa9829d9b66eda08d39f64",
    "wedge3-long/1/sec": "0 0aecabd92102fa3c636b3c7291bfbca96724b855422a2ee6abd69a93d6ddad04",
    "wedge3-long/1/straighten": "0 59cc2837e2b7f2a43e10fa0a0a2513fe6e4fa7b55910b7826cb482f95f2914d5",
    "wedge3-long/1/straighten-contract": "0 a69100adc755907903211b59a617b4a91a51e039ac7486f74398801b1a5578e2",
    "wedge3-long/1/contract": "0 d9bc40c34f4a02442d857676d98c4021a51d33360bcb659d3cbe4dfa1dd8a6a8",
    "wedge3-long/1/eval": "0 1dfdd86df874b4eb1d6ca71872d8ee27858bde03a7b8335ef9d7f9ce6ea93000",
    "wedge3-long/1/increase": "0 f6bdb0ce9233ad01c9c49ecdeccbe2775556e55bebd25a719d96d6b267205a21",
    "wedge3-long/1/increase-half": "0 879a24cf4141bcdc39d1d305808ef1f425881ea1b4f73a54265e596e0f2e62a2",
    "wedge3-long/1/phi": "0 fbd85f40f50ad65b96cc5ca09055ebc5cea4a336df35b8512d09ccc24b364cde",
    "wedge3-long/1/phi-lower-whole": "0 7ea136f6a3a527074b24e6e85cefa54e07db37f6710f7ad4aff08afd366628ea",
    "wedge3-long/1/truncate": "0 8019aafb26019fb7889b4f466879169aaad619992499a9ac8a162a2bf963d937",
    "wedge3-long/1/truncate-delta": "0 226ceeda7ad6b8dc8af90d22cb5823e55fde811e6b5c91d59023ff58d3d01761",
    "wedge3-long/2/sec": "0 41a475390ac465f0359a96a37b0923a595d1f9b9afcb5c1b80d9e19999d4ec3c",
    "wedge3-long/2/straighten": "0 f7f2d0b1e5e2343498f19c9a53bacdc6c08fa636178c155ac68887ce78ec5e82",
    "wedge3-long/2/straighten-contract": "0 536f47f5682302fbaa7c5d4df41091b32ccb98b4f5f30f0325ff6b537c7fbfc8",
    "wedge3-long/2/contract": "0 30d33d078233298ce96c5276b630b3a04f5369dd9a00b71674aec1f0dd5320e9",
    "wedge3-long/2/eval": "0 e47230e4503a69ee98571e82ea6f6393b547bc602dbc53da326f6f07e00a85ac",
    "wedge3-long/2/increase": "0 45f47f48702808ab9dfc1304e0e36f49d9a7f24709b12f04ed62e957961cf90c",
    "wedge3-long/2/increase-half": "0 a0dfb5a6dbdb36837146942b710d56924835227167cde61f8fb9e52f671709c4",
    "wedge3-long/2/phi": "0 47fb14b8268fd7d1ddd437d79449c1ba62907783818eddfc3f1d387cf2574b03",
    "wedge3-long/2/phi-lower-whole": "0 ce19f26656f243e30a93eb846addbb097b611a9d8b32034ab5ed769cbacb0fcc",
    "wedge3-long/2/truncate": "0 c84105cd208d05638771c2dcce407f6cbc8108988935d3cc0bf1774b23fd54c4",
    "wedge3-long/2/truncate-delta": "0 49d0372d7ea8140f3617f093a3187930248c9d3af3bc6ccfcb9e0398c6136e4a",
}


def test_path_command_outputs_are_unchanged(capsys, tmp_path):
    got = {key: _digest(capsys, argv) for key, argv in _cases(tmp_path)}
    assert got.keys() == GOLDEN.keys()
    assert [k for k in GOLDEN if got[k] != GOLDEN[k]] == []


def _sus(make):
    return lambda: suspension_model(make()).complex


# name: a complex; the suspension models and their products carry
# degenerate faces
COMPLEXES = {
    "point": point_complex,
    "interval": interval_complex,
    "circle": circle_complex,
    "wedge3": lambda: wedge_of_circles(3),
    "torus": torus_complex,
    "two-component": two_component_complex,
    "cube3": _cube3,
    "sus-circle": _sus(circle_complex),
    "sus-torus": _sus(torus_complex),
    "sus-sus-circle": lambda: suspension_model(_sus(circle_complex)()).complex,
    "sus-circle*circle": lambda: tensor_product(_sus(circle_complex)(), circle_complex()),
    "interval*sus-circle": lambda: tensor_product(interval_complex(), _sus(circle_complex)()),
}


def _faces(obj, cube):
    return next(c for c in obj["cubes"] if c["id"] == cube)["faces"]


def _mangler(base, *edits):
    """A mangled copy of a stock complex: each edit is ``(cube, key, value)``,
    where value ``None`` deletes the key, a dict replaces the face and a
    list replaces its degeneracy word."""

    def make(obj):
        for cube, key, value in edits:
            faces = _faces(obj, cube)
            if value is None:
                del faces[key]
            elif isinstance(value, dict):
                faces[key] = value
            else:
                faces[key]["degens"] = value
        return obj

    return base, make


MANGLED = {
    "missing-face": _mangler("cube3", ("((e|e)|e)", "d1_2", None)),
    "missing-faces": _mangler(
        "cube3", ("((e|e)|e)", "d0_1", None), ("((e|e)|e)", "d0_3", None), ("((e|a)|e)", "d1_1", None)
    ),
    "ghost-base": _mangler("torus", ("(e|e)", "d0_2", {"base": "ghost", "degens": []})),
    "word-not-normal": _mangler("sus-circle*circle", ("((hi|e)|e)", "d1_1", [1, 2])),
    "word-repeats": _mangler("sus-circle", ("(lo|e)", "d0_2", [1, 1])),
    "index-over-bound": _mangler("sus-circle*circle", ("((lo|e)|e)", "d0_2", [3])),
    "index-zero": _mangler("sus-circle", ("(hi|e)", "d1_2", [0])),
    "wrong-dimension": _mangler("torus", ("(e|e)", "d0_1", {"base": "(v|v)", "degens": []})),
    "broken-square": _mangler("cube3", ("((e|e)|b)", "d0_1", {"base": "((a|e)|a)", "degens": []})),
    "broken-degenerate-square": _mangler(
        "sus-circle*circle", ("((hi|e)|e)", "d0_3", {"base": "((lo|e)|v)", "degens": []})
    ),
    "stray-key": _mangler("circle", ("e", "d0_2", {"base": "v", "degens": []})),
    "stray-and-broken": _mangler(
        "cube3",
        ("((a|e)|e)", "d1_7", {"base": "((a|a)|e)", "degens": []}),
        ("((e|e)|a)", "d1_2", {"base": "((e|a)|b)", "degens": []}),
        ("((e|a)|e)", "d0_1", {"base": "((a|a)|e)", "degens": [1]}),
    ),
}

COMPLEX_COMMANDS = {
    "validate": ["validate"],
    "homology-q": ["homology", "--field", "q"],
    "homology-q-reduced": ["homology", "--field", "q", "--reduced"],
    "homology-zp3": ["homology", "--field", "zp:3"],
    "homology-zp3-reduced": ["homology", "--field", "zp:3", "--reduced"],
    "loop-homology": ["loop-homology", "--degree", "6"],
    "suspension": ["suspension"],
}


def _reversed_keys(obj):
    for cube in obj["cubes"]:
        cube["faces"] = dict(reversed(cube["faces"].items()))
    return obj


def _complex_documents():
    for name, make in COMPLEXES.items():
        yield name, dump_complex(make()), COMPLEX_COMMANDS
    for name, (base, mangle) in MANGLED.items():
        yield name, mangle(dump_complex(COMPLEXES[base]())), ("validate", "homology-q")


def _complex_cases(tmp_path):
    for name, obj, commands in _complex_documents():
        for order, doc in (("", obj), ("reversed/", _reversed_keys(json.loads(json.dumps(obj))))):
            target = tmp_path / f"{order.strip('/') or 'as-dumped'}-{name}.json"
            target.write_text(json.dumps(doc))
            for label in commands:
                head, *rest = COMPLEX_COMMANDS[label]
                yield f"{order}{name}/{label}", [head, str(target), *rest]


def _full_digest(capsys, argv) -> str:
    code = main(argv)
    out, err = capsys.readouterr()
    return f"{code} {hashlib.sha256((out + chr(0) + err).encode('utf-8')).hexdigest()}"


GOLDEN_COMPLEX = {
    "point/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "point/homology-q": "0 b74ab80adfe319f0b9c475b51159a1192b09781ac59cf9116c7a210c1341c536",
    "point/homology-q-reduced": "0 870e45aedc2f6444ad95b15a1f28d30dc7cb5f48e3aebce539eb57fbb86cb1d2",
    "point/homology-zp3": "0 b74ab80adfe319f0b9c475b51159a1192b09781ac59cf9116c7a210c1341c536",
    "point/homology-zp3-reduced": "0 870e45aedc2f6444ad95b15a1f28d30dc7cb5f48e3aebce539eb57fbb86cb1d2",
    "point/loop-homology": "0 bf6c8d52085cb03c799a6a951ad48ad23e39f4be07f06d31b9da75f530a0e6d0",
    "point/suspension": "0 67a781d02fa7895e907debdc8ead88788dc467b1b3208720c3c8106db0872c28",
    "reversed/point/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "reversed/point/homology-q": "0 b74ab80adfe319f0b9c475b51159a1192b09781ac59cf9116c7a210c1341c536",
    "reversed/point/homology-q-reduced": "0 870e45aedc2f6444ad95b15a1f28d30dc7cb5f48e3aebce539eb57fbb86cb1d2",
    "reversed/point/homology-zp3": "0 b74ab80adfe319f0b9c475b51159a1192b09781ac59cf9116c7a210c1341c536",
    "reversed/point/homology-zp3-reduced": "0 870e45aedc2f6444ad95b15a1f28d30dc7cb5f48e3aebce539eb57fbb86cb1d2",
    "reversed/point/loop-homology": "0 bf6c8d52085cb03c799a6a951ad48ad23e39f4be07f06d31b9da75f530a0e6d0",
    "reversed/point/suspension": "0 67a781d02fa7895e907debdc8ead88788dc467b1b3208720c3c8106db0872c28",
    "interval/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "interval/homology-q": "0 6a6ec7a0e49c3ab3b62ef20ea943c7d30f76e7bda7a04058a142b0dcd80ee69f",
    "interval/homology-q-reduced": "0 b33964fa41e1063739f7c6ff909e621bb035b15398f2caa32f74c34c3404f20d",
    "interval/homology-zp3": "0 6a6ec7a0e49c3ab3b62ef20ea943c7d30f76e7bda7a04058a142b0dcd80ee69f",
    "interval/homology-zp3-reduced": "0 b33964fa41e1063739f7c6ff909e621bb035b15398f2caa32f74c34c3404f20d",
    "interval/loop-homology": "0 bf6c8d52085cb03c799a6a951ad48ad23e39f4be07f06d31b9da75f530a0e6d0",
    "interval/suspension": "0 cba480dc7e207111d69d390d3527f09cb4baf95365d61812ee5dd2ae3b5c558e",
    "reversed/interval/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "reversed/interval/homology-q": "0 6a6ec7a0e49c3ab3b62ef20ea943c7d30f76e7bda7a04058a142b0dcd80ee69f",
    "reversed/interval/homology-q-reduced": "0 b33964fa41e1063739f7c6ff909e621bb035b15398f2caa32f74c34c3404f20d",
    "reversed/interval/homology-zp3": "0 6a6ec7a0e49c3ab3b62ef20ea943c7d30f76e7bda7a04058a142b0dcd80ee69f",
    "reversed/interval/homology-zp3-reduced": "0 b33964fa41e1063739f7c6ff909e621bb035b15398f2caa32f74c34c3404f20d",
    "reversed/interval/loop-homology": "0 bf6c8d52085cb03c799a6a951ad48ad23e39f4be07f06d31b9da75f530a0e6d0",
    "reversed/interval/suspension": "0 cba480dc7e207111d69d390d3527f09cb4baf95365d61812ee5dd2ae3b5c558e",
    "circle/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "circle/homology-q": "0 21e7c44c4818f686519db211cb381dc32ecc4a1d89c9dda9040b32d099d7532a",
    "circle/homology-q-reduced": "0 73c7da54bef8b3e5e63bce2c1e5a7ffd651823a1de43398acddeed9ea895d5ce",
    "circle/homology-zp3": "0 21e7c44c4818f686519db211cb381dc32ecc4a1d89c9dda9040b32d099d7532a",
    "circle/homology-zp3-reduced": "0 73c7da54bef8b3e5e63bce2c1e5a7ffd651823a1de43398acddeed9ea895d5ce",
    "circle/loop-homology": "0 1c57cf8b4c061ad087447fea35eb6fc2f3c780bfdf67805b88277340c3df452a",
    "circle/suspension": "0 6aea452cfb10f3b590ab5b3a6da9e585bce25d27d2a8ab1852c8f1c98fd61680",
    "reversed/circle/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "reversed/circle/homology-q": "0 21e7c44c4818f686519db211cb381dc32ecc4a1d89c9dda9040b32d099d7532a",
    "reversed/circle/homology-q-reduced": "0 73c7da54bef8b3e5e63bce2c1e5a7ffd651823a1de43398acddeed9ea895d5ce",
    "reversed/circle/homology-zp3": "0 21e7c44c4818f686519db211cb381dc32ecc4a1d89c9dda9040b32d099d7532a",
    "reversed/circle/homology-zp3-reduced": "0 73c7da54bef8b3e5e63bce2c1e5a7ffd651823a1de43398acddeed9ea895d5ce",
    "reversed/circle/loop-homology": "0 1c57cf8b4c061ad087447fea35eb6fc2f3c780bfdf67805b88277340c3df452a",
    "reversed/circle/suspension": "0 6aea452cfb10f3b590ab5b3a6da9e585bce25d27d2a8ab1852c8f1c98fd61680",
    "wedge3/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "wedge3/homology-q": "0 b081676fea0f1b89acc2c8dc5c4a6108f1c5d2c34aae727fb745f93ecff57768",
    "wedge3/homology-q-reduced": "0 ae72bbc9356cc84e24279a4011e0d2f3fd397bfb8efbfbbc69899b32b3853190",
    "wedge3/homology-zp3": "0 b081676fea0f1b89acc2c8dc5c4a6108f1c5d2c34aae727fb745f93ecff57768",
    "wedge3/homology-zp3-reduced": "0 ae72bbc9356cc84e24279a4011e0d2f3fd397bfb8efbfbbc69899b32b3853190",
    "wedge3/loop-homology": "0 3ab5e1fcf4331aa1b555ef9d9dcc6d9c5ac2f97f57293108434312c755e05972",
    "wedge3/suspension": "0 e4786b341804aa6cd1d27a58a88d118d018d07a5cfd88f315ad2dd4c2cf00ab3",
    "reversed/wedge3/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "reversed/wedge3/homology-q": "0 b081676fea0f1b89acc2c8dc5c4a6108f1c5d2c34aae727fb745f93ecff57768",
    "reversed/wedge3/homology-q-reduced": "0 ae72bbc9356cc84e24279a4011e0d2f3fd397bfb8efbfbbc69899b32b3853190",
    "reversed/wedge3/homology-zp3": "0 b081676fea0f1b89acc2c8dc5c4a6108f1c5d2c34aae727fb745f93ecff57768",
    "reversed/wedge3/homology-zp3-reduced": "0 ae72bbc9356cc84e24279a4011e0d2f3fd397bfb8efbfbbc69899b32b3853190",
    "reversed/wedge3/loop-homology": "0 3ab5e1fcf4331aa1b555ef9d9dcc6d9c5ac2f97f57293108434312c755e05972",
    "reversed/wedge3/suspension": "0 e4786b341804aa6cd1d27a58a88d118d018d07a5cfd88f315ad2dd4c2cf00ab3",
    "torus/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "torus/homology-q": "0 820d98bf2a6d4286424185ce1f78287b607df4f1e1c65636aecd7f299c779bbc",
    "torus/homology-q-reduced": "0 bb6f9e4ca34c7450d559f00e3825e4a9df42412ec7af7352fae6aafcb6883305",
    "torus/homology-zp3": "0 820d98bf2a6d4286424185ce1f78287b607df4f1e1c65636aecd7f299c779bbc",
    "torus/homology-zp3-reduced": "0 bb6f9e4ca34c7450d559f00e3825e4a9df42412ec7af7352fae6aafcb6883305",
    "torus/loop-homology": "0 e04d6c9742adbc8498dee808a03ed3aac8eca8bfb72ea732de2cee4fdb3d3924",
    "torus/suspension": "0 ce7af67425ea0fdddfad2e2feec7725402b473e2f38cc2da16923fcd04e4f0d3",
    "reversed/torus/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "reversed/torus/homology-q": "0 820d98bf2a6d4286424185ce1f78287b607df4f1e1c65636aecd7f299c779bbc",
    "reversed/torus/homology-q-reduced": "0 bb6f9e4ca34c7450d559f00e3825e4a9df42412ec7af7352fae6aafcb6883305",
    "reversed/torus/homology-zp3": "0 820d98bf2a6d4286424185ce1f78287b607df4f1e1c65636aecd7f299c779bbc",
    "reversed/torus/homology-zp3-reduced": "0 bb6f9e4ca34c7450d559f00e3825e4a9df42412ec7af7352fae6aafcb6883305",
    "reversed/torus/loop-homology": "0 e04d6c9742adbc8498dee808a03ed3aac8eca8bfb72ea732de2cee4fdb3d3924",
    "reversed/torus/suspension": "0 ce7af67425ea0fdddfad2e2feec7725402b473e2f38cc2da16923fcd04e4f0d3",
    "two-component/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "two-component/homology-q": "0 50daca7298b4ec329764438bd86ee6b8e84b9084c5b863121b722fc8f20dbb6e",
    "two-component/homology-q-reduced": "0 7fc6fde2ccbe26b083cc514680eb3c13c337695ee54c8f027934069c54098d90",
    "two-component/homology-zp3": "0 50daca7298b4ec329764438bd86ee6b8e84b9084c5b863121b722fc8f20dbb6e",
    "two-component/homology-zp3-reduced": "0 7fc6fde2ccbe26b083cc514680eb3c13c337695ee54c8f027934069c54098d90",
    "two-component/loop-homology": "1 29d76a1294cc5c7186b915ef100646beba64eeb61b7a0ffde16ba4d570c50b1b",
    "two-component/suspension": "0 2aa59e56b797d020b5ee4e5da7703a0d8616c4b64222110f41e8e3592af1aae9",
    "reversed/two-component/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "reversed/two-component/homology-q": "0 50daca7298b4ec329764438bd86ee6b8e84b9084c5b863121b722fc8f20dbb6e",
    "reversed/two-component/homology-q-reduced": "0 7fc6fde2ccbe26b083cc514680eb3c13c337695ee54c8f027934069c54098d90",
    "reversed/two-component/homology-zp3": "0 50daca7298b4ec329764438bd86ee6b8e84b9084c5b863121b722fc8f20dbb6e",
    "reversed/two-component/homology-zp3-reduced": "0 7fc6fde2ccbe26b083cc514680eb3c13c337695ee54c8f027934069c54098d90",
    "reversed/two-component/loop-homology": "1 29d76a1294cc5c7186b915ef100646beba64eeb61b7a0ffde16ba4d570c50b1b",
    "reversed/two-component/suspension": "0 2aa59e56b797d020b5ee4e5da7703a0d8616c4b64222110f41e8e3592af1aae9",
    "cube3/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "cube3/homology-q": "0 8b0d30604eeb20020d9f61ca929252a86b4364d9225ac7045d808dd59b86d2b5",
    "cube3/homology-q-reduced": "0 9dbbde522867804748e0bfde04a640bbf016757ad586cc0f01637281e025aeba",
    "cube3/homology-zp3": "0 8b0d30604eeb20020d9f61ca929252a86b4364d9225ac7045d808dd59b86d2b5",
    "cube3/homology-zp3-reduced": "0 9dbbde522867804748e0bfde04a640bbf016757ad586cc0f01637281e025aeba",
    "cube3/loop-homology": "0 bf6c8d52085cb03c799a6a951ad48ad23e39f4be07f06d31b9da75f530a0e6d0",
    "cube3/suspension": "0 91079eb5325d170b084ec657e14ad34929048534a4128f06b0bab7d1ce752892",
    "reversed/cube3/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "reversed/cube3/homology-q": "0 8b0d30604eeb20020d9f61ca929252a86b4364d9225ac7045d808dd59b86d2b5",
    "reversed/cube3/homology-q-reduced": "0 9dbbde522867804748e0bfde04a640bbf016757ad586cc0f01637281e025aeba",
    "reversed/cube3/homology-zp3": "0 8b0d30604eeb20020d9f61ca929252a86b4364d9225ac7045d808dd59b86d2b5",
    "reversed/cube3/homology-zp3-reduced": "0 9dbbde522867804748e0bfde04a640bbf016757ad586cc0f01637281e025aeba",
    "reversed/cube3/loop-homology": "0 bf6c8d52085cb03c799a6a951ad48ad23e39f4be07f06d31b9da75f530a0e6d0",
    "reversed/cube3/suspension": "0 91079eb5325d170b084ec657e14ad34929048534a4128f06b0bab7d1ce752892",
    "sus-circle/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "sus-circle/homology-q": "0 6aeaf332cde80e125f1b56ed7fcced694db608053bf610c8a8f31cecb2b702b3",
    "sus-circle/homology-q-reduced": "0 67ed72041a5a419941eae75dad6c490c2cee07794836f986fc1a4a3e521c0339",
    "sus-circle/homology-zp3": "0 6aeaf332cde80e125f1b56ed7fcced694db608053bf610c8a8f31cecb2b702b3",
    "sus-circle/homology-zp3-reduced": "0 67ed72041a5a419941eae75dad6c490c2cee07794836f986fc1a4a3e521c0339",
    "sus-circle/loop-homology": "0 c21998383a5e3ed24d9070422a55b3c9479e95db3331b27ad5559323957730af",
    "sus-circle/suspension": "0 1a790422c65951857f30040839cc2b4678f1a312ad152c31f46dabdd96ac2140",
    "reversed/sus-circle/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "reversed/sus-circle/homology-q": "0 6aeaf332cde80e125f1b56ed7fcced694db608053bf610c8a8f31cecb2b702b3",
    "reversed/sus-circle/homology-q-reduced": "0 67ed72041a5a419941eae75dad6c490c2cee07794836f986fc1a4a3e521c0339",
    "reversed/sus-circle/homology-zp3": "0 6aeaf332cde80e125f1b56ed7fcced694db608053bf610c8a8f31cecb2b702b3",
    "reversed/sus-circle/homology-zp3-reduced": "0 67ed72041a5a419941eae75dad6c490c2cee07794836f986fc1a4a3e521c0339",
    "reversed/sus-circle/loop-homology": "0 c21998383a5e3ed24d9070422a55b3c9479e95db3331b27ad5559323957730af",
    "reversed/sus-circle/suspension": "0 1a790422c65951857f30040839cc2b4678f1a312ad152c31f46dabdd96ac2140",
    "sus-torus/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "sus-torus/homology-q": "0 eb796a6470db20ad8d0ea37e3245cb41b5209779e7f95e8ac29a412edc95c951",
    "sus-torus/homology-q-reduced": "0 c1c139fa2a6071530b7d09f35e51c44cfd5444d60eceac657cc183b030572c43",
    "sus-torus/homology-zp3": "0 eb796a6470db20ad8d0ea37e3245cb41b5209779e7f95e8ac29a412edc95c951",
    "sus-torus/homology-zp3-reduced": "0 c1c139fa2a6071530b7d09f35e51c44cfd5444d60eceac657cc183b030572c43",
    "sus-torus/loop-homology": "0 d921df50a4902638479b31a95b649cc931c65094a044297f176d713cb72a8ffd",
    "sus-torus/suspension": "0 943a20ccc4801a64ad217d6cc3c5f36d9cea64327fefd471f528d725c34bc6e7",
    "reversed/sus-torus/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "reversed/sus-torus/homology-q": "0 eb796a6470db20ad8d0ea37e3245cb41b5209779e7f95e8ac29a412edc95c951",
    "reversed/sus-torus/homology-q-reduced": "0 c1c139fa2a6071530b7d09f35e51c44cfd5444d60eceac657cc183b030572c43",
    "reversed/sus-torus/homology-zp3": "0 eb796a6470db20ad8d0ea37e3245cb41b5209779e7f95e8ac29a412edc95c951",
    "reversed/sus-torus/homology-zp3-reduced": "0 c1c139fa2a6071530b7d09f35e51c44cfd5444d60eceac657cc183b030572c43",
    "reversed/sus-torus/loop-homology": "0 d921df50a4902638479b31a95b649cc931c65094a044297f176d713cb72a8ffd",
    "reversed/sus-torus/suspension": "0 943a20ccc4801a64ad217d6cc3c5f36d9cea64327fefd471f528d725c34bc6e7",
    "sus-sus-circle/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "sus-sus-circle/homology-q": "0 546a79999c04237d7ea18e8e23658f933241fb87e4e674f957f1ee7b4f2b94c0",
    "sus-sus-circle/homology-q-reduced": "0 a260d71c5fc92b7b18cb20ad2e8d6d9f684b72039dd53c5112176d58c446e23d",
    "sus-sus-circle/homology-zp3": "0 546a79999c04237d7ea18e8e23658f933241fb87e4e674f957f1ee7b4f2b94c0",
    "sus-sus-circle/homology-zp3-reduced": "0 a260d71c5fc92b7b18cb20ad2e8d6d9f684b72039dd53c5112176d58c446e23d",
    "sus-sus-circle/loop-homology": "0 1c02d57e04282dea7a54907a9ccf9f34e8abe1ba7f39a46379655808c64cf25a",
    "sus-sus-circle/suspension": "0 9d270ce88e1afa52a70159849ddb2e735a54d74145f4a9a9e49a64adddd40f26",
    "reversed/sus-sus-circle/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "reversed/sus-sus-circle/homology-q": "0 546a79999c04237d7ea18e8e23658f933241fb87e4e674f957f1ee7b4f2b94c0",
    "reversed/sus-sus-circle/homology-q-reduced": "0 a260d71c5fc92b7b18cb20ad2e8d6d9f684b72039dd53c5112176d58c446e23d",
    "reversed/sus-sus-circle/homology-zp3": "0 546a79999c04237d7ea18e8e23658f933241fb87e4e674f957f1ee7b4f2b94c0",
    "reversed/sus-sus-circle/homology-zp3-reduced": "0 a260d71c5fc92b7b18cb20ad2e8d6d9f684b72039dd53c5112176d58c446e23d",
    "reversed/sus-sus-circle/loop-homology": "0 1c02d57e04282dea7a54907a9ccf9f34e8abe1ba7f39a46379655808c64cf25a",
    "reversed/sus-sus-circle/suspension": "0 9d270ce88e1afa52a70159849ddb2e735a54d74145f4a9a9e49a64adddd40f26",
    "sus-circle*circle/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "sus-circle*circle/homology-q": "0 457f6b0f0ddc8368723cd7961858162536cbf8f419cd1f13c4ff11c300d447b8",
    "sus-circle*circle/homology-q-reduced": "0 8b9d5bf389f058b67a292f7a8e778582cbbeb3a1cff46003925e3850b4cac7ef",
    "sus-circle*circle/homology-zp3": "0 457f6b0f0ddc8368723cd7961858162536cbf8f419cd1f13c4ff11c300d447b8",
    "sus-circle*circle/homology-zp3-reduced": "0 8b9d5bf389f058b67a292f7a8e778582cbbeb3a1cff46003925e3850b4cac7ef",
    "sus-circle*circle/loop-homology": "0 32db34223084a0a7719c3eae0dbbda757d06c7afd7d2b519b3d79abeaec0c7e4",
    "sus-circle*circle/suspension": "0 35e627121de1db55cd5c382c2eebe70a739f0611a6d57fe206e08ebd84756904",
    "reversed/sus-circle*circle/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "reversed/sus-circle*circle/homology-q": "0 457f6b0f0ddc8368723cd7961858162536cbf8f419cd1f13c4ff11c300d447b8",
    "reversed/sus-circle*circle/homology-q-reduced": "0 8b9d5bf389f058b67a292f7a8e778582cbbeb3a1cff46003925e3850b4cac7ef",
    "reversed/sus-circle*circle/homology-zp3": "0 457f6b0f0ddc8368723cd7961858162536cbf8f419cd1f13c4ff11c300d447b8",
    "reversed/sus-circle*circle/homology-zp3-reduced": "0 8b9d5bf389f058b67a292f7a8e778582cbbeb3a1cff46003925e3850b4cac7ef",
    "reversed/sus-circle*circle/loop-homology": "0 32db34223084a0a7719c3eae0dbbda757d06c7afd7d2b519b3d79abeaec0c7e4",
    "reversed/sus-circle*circle/suspension": "0 35e627121de1db55cd5c382c2eebe70a739f0611a6d57fe206e08ebd84756904",
    "interval*sus-circle/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "interval*sus-circle/homology-q": "0 284db9d98b24719fd48674b125f788bd417e6beebc5a31ce366e49d7e2ac2329",
    "interval*sus-circle/homology-q-reduced": "0 1b80871f87be251542ee116b18ed8710cea874101a06e409d72ad8bea5cf807c",
    "interval*sus-circle/homology-zp3": "0 284db9d98b24719fd48674b125f788bd417e6beebc5a31ce366e49d7e2ac2329",
    "interval*sus-circle/homology-zp3-reduced": "0 1b80871f87be251542ee116b18ed8710cea874101a06e409d72ad8bea5cf807c",
    "interval*sus-circle/loop-homology": "0 c21998383a5e3ed24d9070422a55b3c9479e95db3331b27ad5559323957730af",
    "interval*sus-circle/suspension": "0 bb88da7ccae2c1c1c9d714aea92ff036b0f1778c4b348f79ba87ee1f54001351",
    "reversed/interval*sus-circle/validate": "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    "reversed/interval*sus-circle/homology-q": "0 284db9d98b24719fd48674b125f788bd417e6beebc5a31ce366e49d7e2ac2329",
    "reversed/interval*sus-circle/homology-q-reduced": "0 1b80871f87be251542ee116b18ed8710cea874101a06e409d72ad8bea5cf807c",
    "reversed/interval*sus-circle/homology-zp3": "0 284db9d98b24719fd48674b125f788bd417e6beebc5a31ce366e49d7e2ac2329",
    "reversed/interval*sus-circle/homology-zp3-reduced": "0 1b80871f87be251542ee116b18ed8710cea874101a06e409d72ad8bea5cf807c",
    "reversed/interval*sus-circle/loop-homology": "0 c21998383a5e3ed24d9070422a55b3c9479e95db3331b27ad5559323957730af",
    "reversed/interval*sus-circle/suspension": "0 bb88da7ccae2c1c1c9d714aea92ff036b0f1778c4b348f79ba87ee1f54001351",
    "missing-face/validate": "1 afee55dca15b9ebf4ee3b2ce3d7312d6939ef8eaca9da3e73055a52c0b04d8a2",
    "missing-face/homology-q": "2 e88ff52bc7e722c79c0f7c477c1519a2439a848b2a0e9644f91de048c35e9222",
    "reversed/missing-face/validate": "1 afee55dca15b9ebf4ee3b2ce3d7312d6939ef8eaca9da3e73055a52c0b04d8a2",
    "reversed/missing-face/homology-q": "2 e88ff52bc7e722c79c0f7c477c1519a2439a848b2a0e9644f91de048c35e9222",
    "missing-faces/validate": "1 9674dbf2d50fe11c267fe30b4022d356297ef0d4bfc4a21826470c57617db479",
    "missing-faces/homology-q": "2 d14628f44555aa5832720ef6cdef38e896a31f2710132f77325d61fefcb998f4",
    "reversed/missing-faces/validate": "1 9674dbf2d50fe11c267fe30b4022d356297ef0d4bfc4a21826470c57617db479",
    "reversed/missing-faces/homology-q": "2 d14628f44555aa5832720ef6cdef38e896a31f2710132f77325d61fefcb998f4",
    "ghost-base/validate": "1 c3d0dbf8b3802fdcb1788a481f04d77a3073d1c0025b2d929c43fe9b03e31708",
    "ghost-base/homology-q": "2 e12880e3e2e1fb7a44c6c69fc66fa93560807caffe9f11f98d88d0f7f9eff87c",
    "reversed/ghost-base/validate": "1 c3d0dbf8b3802fdcb1788a481f04d77a3073d1c0025b2d929c43fe9b03e31708",
    "reversed/ghost-base/homology-q": "2 e12880e3e2e1fb7a44c6c69fc66fa93560807caffe9f11f98d88d0f7f9eff87c",
    "word-not-normal/validate": "1 d1725b5f1eec58b72a0d6e10e4e3f9f0fee9ba615e3d763823b4772e885a4070",
    "word-not-normal/homology-q": "2 7247ac8b149c1dec755cd54bc513f3d7b2f5bd17d465e010d47d44597627ce95",
    "reversed/word-not-normal/validate": "1 d1725b5f1eec58b72a0d6e10e4e3f9f0fee9ba615e3d763823b4772e885a4070",
    "reversed/word-not-normal/homology-q": "2 7247ac8b149c1dec755cd54bc513f3d7b2f5bd17d465e010d47d44597627ce95",
    "word-repeats/validate": "1 85366595f1435d789c420e90e9e07bbc20bec1beba470527733858c8b1f9b6f2",
    "word-repeats/homology-q": "2 bdc8ce1078ea3bc19864a1a42d2f72ac7fc8d83402b63431e23af8fe05504149",
    "reversed/word-repeats/validate": "1 85366595f1435d789c420e90e9e07bbc20bec1beba470527733858c8b1f9b6f2",
    "reversed/word-repeats/homology-q": "2 bdc8ce1078ea3bc19864a1a42d2f72ac7fc8d83402b63431e23af8fe05504149",
    "index-over-bound/validate": "1 a8fa748cc1328412da51c25c0c5554721365ee7351d84b427ee69972e240edb1",
    "index-over-bound/homology-q": "2 f15b7f87722518bcc0e3f128c20fd1466de6bfc832d029ec9c0473034bfaf7f9",
    "reversed/index-over-bound/validate": "1 a8fa748cc1328412da51c25c0c5554721365ee7351d84b427ee69972e240edb1",
    "reversed/index-over-bound/homology-q": "2 f15b7f87722518bcc0e3f128c20fd1466de6bfc832d029ec9c0473034bfaf7f9",
    "index-zero/validate": "1 71e5091be342ab43573b96266918bb069a51c4fbc46887e93958b168afb9e15f",
    "index-zero/homology-q": "2 5e659616bc42dee235950c8dd12c1d1202591182e474d1e9066d423848e022c4",
    "reversed/index-zero/validate": "1 71e5091be342ab43573b96266918bb069a51c4fbc46887e93958b168afb9e15f",
    "reversed/index-zero/homology-q": "2 5e659616bc42dee235950c8dd12c1d1202591182e474d1e9066d423848e022c4",
    "wrong-dimension/validate": "1 d660cd4bc1d0886594187f39cb08e1a9e565fe121226a427a4f4d1a71e1813e0",
    "wrong-dimension/homology-q": "2 b323354cdbc0bc5ba28a84f1ab87cb12f07611c798a6dd53a2277806df1deb05",
    "reversed/wrong-dimension/validate": "1 d660cd4bc1d0886594187f39cb08e1a9e565fe121226a427a4f4d1a71e1813e0",
    "reversed/wrong-dimension/homology-q": "2 b323354cdbc0bc5ba28a84f1ab87cb12f07611c798a6dd53a2277806df1deb05",
    "broken-square/validate": "1 9e87b5f4ed61058e931c6451cfb638bf632a7b906e0ecb9239b23c1ede3578ee",
    "broken-square/homology-q": "2 e2ab2fea0fdaa40dbbc192ef7813a30cd08b2b09b4512ea9a2758c35e310e2a7",
    "reversed/broken-square/validate": "1 9e87b5f4ed61058e931c6451cfb638bf632a7b906e0ecb9239b23c1ede3578ee",
    "reversed/broken-square/homology-q": "2 e2ab2fea0fdaa40dbbc192ef7813a30cd08b2b09b4512ea9a2758c35e310e2a7",
    "broken-degenerate-square/validate": "1 c9e785c8a0440c533a2e3d8b473a3293e580e9931e0d49901c618666c2e9d6e9",
    "broken-degenerate-square/homology-q": "2 6199114d1ee3a8f0a0b068fb70aae84f1ee92492e7df94a772f7be6ad350e05b",
    "reversed/broken-degenerate-square/validate": "1 c9e785c8a0440c533a2e3d8b473a3293e580e9931e0d49901c618666c2e9d6e9",
    "reversed/broken-degenerate-square/homology-q": "2 6199114d1ee3a8f0a0b068fb70aae84f1ee92492e7df94a772f7be6ad350e05b",
    "stray-key/validate": "1 4404caa51812e65b39dba51c09fc355d0d77e5a08082397ec5eadbfed9e29e01",
    "stray-key/homology-q": "2 601a63f611b3df53625f6b8dd23bda12d7bfa3ff7e5a5100da50eb30d98f1ff5",
    "reversed/stray-key/validate": "1 4404caa51812e65b39dba51c09fc355d0d77e5a08082397ec5eadbfed9e29e01",
    "reversed/stray-key/homology-q": "2 601a63f611b3df53625f6b8dd23bda12d7bfa3ff7e5a5100da50eb30d98f1ff5",
    "stray-and-broken/validate": "1 bc1733865e5f69e4db1c16e2a3b83db7db395c249055fe9cd1b3f0c52efba6bd",
    "stray-and-broken/homology-q": "2 d2e00ee7f6e3f340d65690629e2640ec7d5198130a1e2b93a66fdfca9c4bd166",
    "reversed/stray-and-broken/validate": "1 bc1733865e5f69e4db1c16e2a3b83db7db395c249055fe9cd1b3f0c52efba6bd",
    "reversed/stray-and-broken/homology-q": "2 d2e00ee7f6e3f340d65690629e2640ec7d5198130a1e2b93a66fdfca9c4bd166",
}


def test_complex_command_outputs_are_unchanged(capsys, tmp_path):
    got = {key: _full_digest(capsys, argv) for key, argv in _complex_cases(tmp_path)}
    assert got.keys() == GOLDEN_COMPLEX.keys()
    assert [k for k in GOLDEN_COMPLEX if got[k] != GOLDEN_COMPLEX[k]] == []


DATA = Path(__file__).parent / "data"
LONG_TRAIL = "0 87c0728795e7d0a5e07f636df016d18414f6850bfb4028d9fd877881d49e6c9c"


def test_long_trail_is_unchanged(capsys):
    # 100 frames over a 47-letter word, written one frame at a time
    complex_file = DATA / "wedge3.json"
    assert json.loads(complex_file.read_text()) == dump_complex(wedge_of_circles(3))
    argv = ["contract", str(DATA / "wedge3_loop47.json"), "--complex", str(complex_file)]
    assert _digest(capsys, argv) == LONG_TRAIL


LONG_TRAIL_SEVEN = "0 570a0bc3d17f06ef9bbd6f2c9dfb6e56e27d4a78419f085eee56ae6032c28446"


def test_long_trail_on_seven_samples_is_unchanged(capsys):
    # the same walk after the non-dyadic early frames at 1/6 and 1/3
    argv = ["contract", str(DATA / "wedge3_loop47.json"), "--complex", str(DATA / "wedge3.json")]
    assert _digest(capsys, [*argv, "--samples", "7"]) == LONG_TRAIL_SEVEN


LONG_STRAIGHTEN = {
    (): "0 00803d4e6038964479bfb3a731cc59e8e94a4e4d5cbc1b8c6e4fc38a7b498a65",
    ("--samples", "9"): "0 bdc680937425b93d2ed8bc301178ca8316f5bd4da4c792f6851c3c8ced93ae05",
    ("--samples", "7"): "0 325b6b37f354e5806ad538859a0b1d5ddd42aad8656eff70b9cd2633c2ccac1f",
}


def test_long_straighten_is_unchanged(capsys):
    # every stage of the clock over a 47-letter word: the default five
    # samples, nine, which put four frames past the half-way stage, and
    # seven, whose stages 1/6 and 1/3 shift by 1/3 and 2/3 and scale the
    # clock by 3/4 and 3/5, which no dyadic grid does
    argv = ["straighten", str(DATA / "wedge3_loop47.json"), "--complex", str(DATA / "wedge3.json")]
    got = {extra: _digest(capsys, [*argv, *extra]) for extra in LONG_STRAIGHTEN}
    assert got == LONG_STRAIGHTEN


LONG_SEC = "0 a7fb650c739939ce016e74df2e4098f327faad1ff45f3dddb330279429ba21d7"


def test_long_sec_is_unchanged(capsys):
    # the 47-letter crossing word, which straighten's "sec" must also give
    argv = ["sec", str(DATA / "wedge3_loop47.json"), "--complex", str(DATA / "wedge3.json")]
    assert _digest(capsys, argv) == LONG_SEC


# k: the point at time 215*k/64, that is k/64 of the loop's duration
LONG_EVAL = {
    1: "0 be87b21395b38603ce0937f07ec0f37378b3add9624f4152cc29a93e9e40b91e",
    13: "0 07e30e8a8da2619e618b1284c475dcb891bdbd62b9f234c9548024150730d453",
    31: "0 5e87b93e3347db861e29dc21c7363faff636270f73c840c4cae9f70bb41a5fa9",
    45: "0 9a396651be39474539d2f1f97bdc8b7fc23d29649ad2b9956d4e5b48f09136f3",
    64: "0 5e87b93e3347db861e29dc21c7363faff636270f73c840c4cae9f70bb41a5fa9",
}


def test_long_eval_is_unchanged(capsys):
    # two interior points, a pause in the middle of the loop, and its end
    argv = ["path", "eval", str(DATA / "wedge3_loop47.json"), "--complex", str(DATA / "wedge3.json")]
    got = {k: _digest(capsys, [*argv, "--t", str(Fraction(215 * k, 64))]) for k in LONG_EVAL}
    assert got == LONG_EVAL


# the path transforms CI runs on the 47-letter loop: the shear at two
# tilts, and each half cone shrunk half way, the lower one also wholly,
# which clamps every track below the middle slice into a pause
LONG_TRANSFORMS = {
    ("increase", "--eps", "1/4"): "0 4b04bcedef5ca624f656e5732702fa223a22899e42c7ea801c8ee9de59241faf",
    ("increase", "--eps", "1/2"): "0 8b2a56c2d8e4123ecb806bccbfad7c743078985a3f85831ff1e97f347f4ccdbc",
    ("phi", "--side", "upper", "--t", "1/2"): "0 3f48e4b003eeea4e641fdc6f58be91021ff7341acd8182ec26d968c7eb98e75b",
    ("phi", "--side", "lower", "--t", "1/2"): "0 07f796b2b7777ed3eb1e76cd02cb1df377c59b67ab77a6308a2918eddee9b57a",
    ("phi", "--side", "lower", "--t", "1"): "0 3c70078c939e7b3e3a06eb30d659d3eea921a460e2319c5b547c216986d9f1ce",
}


def test_long_transforms_are_unchanged(capsys):
    files = [str(DATA / "wedge3_loop47.json"), "--complex", str(DATA / "wedge3.json")]
    got = {(cmd, *rest): _digest(capsys, ["path", cmd, *files, *rest]) for cmd, *rest in LONG_TRANSFORMS}
    assert got == LONG_TRANSFORMS


# the commands CI also runs on the committed suspended torus, whose
# document has degenerate faces
SUS_TORUS = {
    ("validate",): "0 e795da9310ff18b6f32deea6113460f7918b3ef64151f4ea555fb2c6c9558996",
    ("homology", "--field", "q"): "0 eb796a6470db20ad8d0ea37e3245cb41b5209779e7f95e8ac29a412edc95c951",
    ("homology", "--field", "zp:3"): "0 eb796a6470db20ad8d0ea37e3245cb41b5209779e7f95e8ac29a412edc95c951",
    ("loop-homology", "--degree", "6"): "0 d921df50a4902638479b31a95b649cc931c65094a044297f176d713cb72a8ffd",
}


def test_sus_torus_fixture_is_unchanged(capsys):
    complex_file = DATA / "sus_torus.json"
    assert json.loads(complex_file.read_text()) == dump_complex(_sus(torus_complex)())
    got = {
        (head, *rest): _full_digest(capsys, [head, str(complex_file), *rest])
        for head, *rest in SUS_TORUS
    }
    assert got == SUS_TORUS
