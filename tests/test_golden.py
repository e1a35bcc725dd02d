"""Byte for byte regression of the path commands.

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
"""

import hashlib
import json
import random

from dirloop.cli import main
from dirloop.corpus import (
    circle_complex,
    interval_complex,
    random_loop,
    torus_complex,
    wedge_of_circles,
)
from dirloop.cubical import tensor_product
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
        "phi": ["path", "phi", "--side", "upper", "--t", "1/2"],
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
    "circle/1/phi": "0 d38c44d3fb04dc6ceabd77b55a368536333b3a1c603366c3bf5c5bfb487e8830",
    "circle/1/truncate": "0 3e0a55c8a17df660d1881a811ce918271edebe1650cdc0074d942f1dcb818065",
    "circle/1/truncate-delta": "0 001713a7b8c24a3e0b822fc4654d303764800f318a62c26fc163bb8d8417b716",
    "circle/2/sec": "0 ea084e725b44e6f8b550007917581e3ded37be7a3b85db5100ed6b1418a37128",
    "circle/2/straighten": "0 c38a67266454c04be5aa8e7f83d4011c11c4f6abbb7556358697aebe09c2e8c8",
    "circle/2/straighten-contract": "0 d73aa58bbd1dd5d589549e71ef37bf95ca830b1753a2ce786d5baf60b942dbe1",
    "circle/2/contract": "0 f2db8fb539249824847652834d8ab7c1abd1123f77fd3aa6ff7fef209ca24d34",
    "circle/2/eval": "0 8646a5c29dfdca60ce1825523ef5b506634b5509d02acb2ca96ff1cabdc312ba",
    "circle/2/increase": "0 c2d3d67f9a83dfd80b2d2d221e4199ec35eeb250b5fe7cb484a84e306e8e0639",
    "circle/2/phi": "0 990ac20bf65fecf44cff82769c81921b295890221f5e90098a26c8c0aedf5d05",
    "circle/2/truncate": "0 f96cb6590aebf8e7b3539c78bdc2192018a04269c384b7c04f45f3d97747f02d",
    "circle/2/truncate-delta": "0 23e3e0ebd566130172b9378fe0e0201b541bffccb00a2e68d2018d19a69a1bd4",
    "wedge2/1/sec": "0 1c27ace51f492d8043a1f646f0c9792030d71e4f733089f0eeca22ec496af496",
    "wedge2/1/straighten": "0 4f7473b52524b48b19fa805190e6a2ea9ace98b90671b77d5c439b5a9f369d4e",
    "wedge2/1/straighten-contract": "0 af514480388bf9a1c7692d9c5914b2491e74d9fbfdb610b68db385f41e823569",
    "wedge2/1/contract": "0 d629da290634bd50c36dc67844e2adad1e9ea097da4acb930e0e082c1bf739f2",
    "wedge2/1/eval": "0 6217abad0e063f89a95ab585de97b336700577b7629cdad593de099a1eeaadbc",
    "wedge2/1/increase": "0 02c899d8207031ae3ea5973d2b1fc4081c9d7875d0f445e3c02e3cc4ed76fc52",
    "wedge2/1/phi": "0 26719474eda73071bfc0e15a7c5ec3c1630d82f2ae8570c0a99fdc07e3f0be42",
    "wedge2/1/truncate": "0 3b5a0847e4e8729aefeb7c72bcf38bde5d2285f820c2d790ed0d329916cae1a8",
    "wedge2/1/truncate-delta": "0 ef5a73b2f551fa33dd882926d3b6e620d0df41a5518498255c00e3867fcb1647",
    "wedge2/2/sec": "0 c97a8e528846081a6f4a7850d0df128633c574862990caeeb7e0f37002f79ee6",
    "wedge2/2/straighten": "0 a679c757497f85b0181732d85c5a90410629cd099bddaf33d8881a446401f772",
    "wedge2/2/straighten-contract": "0 5d4efc9d9b07a06cf92b57e4777d6124a68387220bb2e56ce8db6c5976202199",
    "wedge2/2/contract": "0 2573c2e4b26f1cd4c37d902b7a279fa9a9297e8ff80117907b2c88ba047d71c0",
    "wedge2/2/eval": "0 55082eafabf45502d7ead18c35000a1b34e535af7bc7bb89b2e4f0527e6c0de9",
    "wedge2/2/increase": "0 19d5c9fbc532cee7a886dcaa8e544154b74b818bb8cdd8d735b79c0286979013",
    "wedge2/2/phi": "0 03eeecde0ee4fd785c0b2f1748001f3ced7d1df0239d03134cc7e9cae0db19c8",
    "wedge2/2/truncate": "0 5f1b76435656a40e01ab640a7bc722c298c97029df7a9eecd7ec8ceac875de27",
    "wedge2/2/truncate-delta": "0 3738f881d00b59cb93f6075223afa4ba0e5b7c45d37b2325d0323c3cc1436296",
    "torus/1/sec": "0 4d0b124577f37d356184fdd651324d4d9889427c77c590d59b0b6b87a37f6fe9",
    "torus/1/straighten": "0 143a01b7f53bf09b93d6105760a7c8d60d6beb6c2fb1c17408125cdae7a758e0",
    "torus/1/straighten-contract": "0 b4053a3f3840bd55cb11cc3719e5dbf9b5b1e11f8918010946a6c227532bca63",
    "torus/1/contract": "0 dcc3820f9afe62bcc3f23af8efb8dc37f566f211a5e3568611fb41a69e3359c6",
    "torus/1/eval": "0 7cc3e686b17f9344e236391c13956a1a73aa6819d3f63fd8a853801a4156dc50",
    "torus/1/increase": "0 1f7a4d6f7baa552d28b1329033c4e4cb12b699b433efb889bd74b38a8b07d805",
    "torus/1/phi": "0 5954003106ad998708c2c554b283bbb06f74232285dff4be28707ae20db238d4",
    "torus/1/truncate": "0 1441ac990b98be7a586df9fa877a68c19e56cdcdee9da7647837599e6d6571ea",
    "torus/1/truncate-delta": "0 9f209f48fecdda1246df8de8ef20d78f259a1b7594b6834366cda8f3b3a32e5d",
    "torus/2/sec": "0 a148d70de766dda42b37781d1702c54678fe3248239e91972b613b7ed18c93a2",
    "torus/2/straighten": "0 4e4e506658d33578641685d3d1a58b50d0997ed5b7edc44dc10256e49d483a3a",
    "torus/2/straighten-contract": "0 82fda0dfa282ae462849a2bb71b1ed3377ca01e336719439821e3020e21bb69e",
    "torus/2/contract": "0 fc11cb2bbfde32ecb8ac114d2511d5a3720c295c7f561abb8822afee1419525e",
    "torus/2/eval": "0 cdcb7a9c8feda203d42861db7fb6b09cc8ede9fb1ef412b0f537539f7c2b3f32",
    "torus/2/increase": "0 9226455a7d52adef391e723d68b61260c5f91db6bc15273cc81b42e3ac655247",
    "torus/2/phi": "0 028d79a013b0a4e7ba5c2c3f486faa45047d71f826e63cbd41e242a2a6a29330",
    "torus/2/truncate": "0 8a991a077dcd29d53e75673926d74c2d55a2630bd25d599a91ea9ca42fec4edb",
    "torus/2/truncate-delta": "0 d8ba68eae0ba2fa04efb87a429a3a2c7b6e2bc48e0e2e70fe6c9eba116101321",
    "cube3/1/sec": "0 74ab5f96c0f0d51f6c7b023ccfaa9fb06ee4f79e90742a1295dcaa86361a1104",
    "cube3/1/straighten": "0 55e544bced1edd8ddfc009926628e8ff5977bae384745610533068e9a918debf",
    "cube3/1/straighten-contract": "0 0b913510d9b33225410b56dc14a932e8f32c88ebdd2963e1afc7717332725178",
    "cube3/1/contract": "0 9abbd7fde09170ae82683282272fec058c05b3e7aaa599f2e0528db2d6b0088b",
    "cube3/1/eval": "0 58f5e9a694de12eea59e1c5803cc16f62ff3f46cb72f5bba1aa6616b965ab811",
    "cube3/1/increase": "0 15a8149bd627c40ca995d98135e2224fb95b0d755669d83a5fa2bc30d23ca0f7",
    "cube3/1/phi": "0 4ef9365007df1b8b74323b9c445e322e45eedd6060b79b4bffc419e30c8ca4e5",
    "cube3/1/truncate": "0 aca923bf07f9885d12b6a9d944824e68a111ff3f0edddd5ee77e42d74fc2a775",
    "cube3/1/truncate-delta": "0 921c969ecf6e9e22212476c17d11cf34512700d418bf0e56c1eb2504007c2383",
    "cube3/2/sec": "0 ca1534c1226a7d2c9859b984eefb60bd4c4cc4131bf040d3ea8d02497b6dc194",
    "cube3/2/straighten": "0 ab7363eaca40bdc016e310d440ae9204a7587fa3949beb9e6e257d1a13f3e3e8",
    "cube3/2/straighten-contract": "0 8e2313697b4264246e153894844b87822dad30576ae01ad3fa9e669e50f685db",
    "cube3/2/contract": "0 134e3e068b88399ebfa915d2c48037785724b4c9c99274d922d3ced581611912",
    "cube3/2/eval": "0 aaa8571b45f2d92a1a2a8866ff528cb912d9eafab9881abd6316c67c8ca95f65",
    "cube3/2/increase": "0 af5571ed63e1113ff554b09842e888828f1a059841b41923dfd5631222acd9dd",
    "cube3/2/phi": "0 9bff151fbb7202c2df36be96de96db3bd8241278bbcca726f9d15b0b361c1515",
    "cube3/2/truncate": "0 dfd4af1f259dea355670e962219cad1d40c2b8104f96dca6d1265e234ada5d1c",
    "cube3/2/truncate-delta": "0 36b9d79cf64f23654194062099175a3abc6dccc894fa9829d9b66eda08d39f64",
    "wedge3-long/1/sec": "0 0aecabd92102fa3c636b3c7291bfbca96724b855422a2ee6abd69a93d6ddad04",
    "wedge3-long/1/straighten": "0 59cc2837e2b7f2a43e10fa0a0a2513fe6e4fa7b55910b7826cb482f95f2914d5",
    "wedge3-long/1/straighten-contract": "0 a69100adc755907903211b59a617b4a91a51e039ac7486f74398801b1a5578e2",
    "wedge3-long/1/contract": "0 d9bc40c34f4a02442d857676d98c4021a51d33360bcb659d3cbe4dfa1dd8a6a8",
    "wedge3-long/1/eval": "0 1dfdd86df874b4eb1d6ca71872d8ee27858bde03a7b8335ef9d7f9ce6ea93000",
    "wedge3-long/1/increase": "0 f6bdb0ce9233ad01c9c49ecdeccbe2775556e55bebd25a719d96d6b267205a21",
    "wedge3-long/1/phi": "0 fbd85f40f50ad65b96cc5ca09055ebc5cea4a336df35b8512d09ccc24b364cde",
    "wedge3-long/1/truncate": "0 8019aafb26019fb7889b4f466879169aaad619992499a9ac8a162a2bf963d937",
    "wedge3-long/1/truncate-delta": "0 226ceeda7ad6b8dc8af90d22cb5823e55fde811e6b5c91d59023ff58d3d01761",
    "wedge3-long/2/sec": "0 41a475390ac465f0359a96a37b0923a595d1f9b9afcb5c1b80d9e19999d4ec3c",
    "wedge3-long/2/straighten": "0 f7f2d0b1e5e2343498f19c9a53bacdc6c08fa636178c155ac68887ce78ec5e82",
    "wedge3-long/2/straighten-contract": "0 536f47f5682302fbaa7c5d4df41091b32ccb98b4f5f30f0325ff6b537c7fbfc8",
    "wedge3-long/2/contract": "0 30d33d078233298ce96c5276b630b3a04f5369dd9a00b71674aec1f0dd5320e9",
    "wedge3-long/2/eval": "0 e47230e4503a69ee98571e82ea6f6393b547bc602dbc53da326f6f07e00a85ac",
    "wedge3-long/2/increase": "0 45f47f48702808ab9dfc1304e0e36f49d9a7f24709b12f04ed62e957961cf90c",
    "wedge3-long/2/phi": "0 47fb14b8268fd7d1ddd437d79449c1ba62907783818eddfc3f1d387cf2574b03",
    "wedge3-long/2/truncate": "0 c84105cd208d05638771c2dcce407f6cbc8108988935d3cc0bf1774b23fd54c4",
    "wedge3-long/2/truncate-delta": "0 49d0372d7ea8140f3617f093a3187930248c9d3af3bc6ccfcb9e0398c6136e4a",
}


def test_path_command_outputs_are_unchanged(capsys, tmp_path):
    got = {key: _digest(capsys, argv) for key, argv in _cases(tmp_path)}
    assert got.keys() == GOLDEN.keys()
    assert [k for k in GOLDEN if got[k] != GOLDEN[k]] == []
