"""Every CLI path pinned byte for byte.

One request per (command, event, model) path in JSON and CSV, the
constants, the ``verify --suite exact`` report, a small ``verify --suite
mc`` and the error paths.  Each pins the exit code and the sha256 of
stdout; error paths print nothing on stdout.  The digests were recorded
once and are never regenerated: a refactor of the CLI must leave every
one of them unchanged.
"""

import hashlib

import pytest
from click.testing import CliRunner

from stickprob.cli import cli

GOLDEN = {
    "compute pn --model pickup --p 2 --n 4":
        (0, "c8de13a1f6c05e4fa8d004931e3b8d27533f757d9711d42551c872ca4a601bdc"),
    "compute pn --model broken --p 3 --n 7":
        (0, "d1114fedff54bff03257e80e0624feaab971b17f160fc4e8a804c8e266ae9428"),
    "compute pn --model exponential --p 2 --n 6 --decimal-digits 30":
        (0, "1630d07aa286fee5a8be025a4c751ea36305b1f5dc0626dd3cf3fac526666607"),
    "compute pn --model truncated --p 2 --n 3 --a 1/4":
        (0, "b6bff1efaba07393c009fc3d6991614593d7a0416546ea03653e5a93be1c4d84"),
    "compute pn --model truncated --p 3 --n 5 --a 1/2":
        (0, "bb7ad34c03a771bd64859a3416d8ebb6f06401df06e186464d5de8d3330b9427"),
    "compute pn --p 3 --n 3":
        (0, "1d6b96ad7a6cfd699425be104bc7f0a2729f1f9506b456661c54afabe8d60185"),
    "compute pn --p 2 --n 30 --decimal-digits 0":
        (0, "442d1ce9588bbcce69bc16006b198cf580e39af823039eb9c9f4f53e19193208"),
    "compute pa --p 3 --n 6":
        (0, "98665513ce4591941a9d642bbe5c38950fd601904dac50039f4111f5fe9feb2f"),
    "compute pa --model pickup --p 2 --n 5":
        (0, "16d3ac2c5446ec25624e9b52dd7fb743ba29860867c78cb906109710dfe5a94d"),
    "compute pr --p 4":
        (0, "84e74143228076468a32cf90d999456823cc8d75f26daba2ff9ca5fa21df33c3"),
    "table pn --model pickup --p 2:3 --n 3:6":
        (0, "ba2e74a0d74cf1802907691fefa8854e1577c91df947db3ac0ddc4ac6e2a4e61"),
    "table pn --model pickup --p 2:3 --n 3:6 --output csv":
        (0, "b25c529254a2b20a6b5a570d6f315413a174702af4d2cfca6ff36a4b7c4d89d8"),
    "table pn --model broken --p 2 --n 3:5":
        (0, "e0251bede131096a98c4f059633e4376ee287c3c194237b649b73b9af93b5f54"),
    "table pn --model broken --p 2 --n 3:5 --output csv":
        (0, "8ab28b625599290f0b80c75ba3c8be29a6c30343490c1879b3c622f8c1408bf1"),
    "table pn --model exponential --p 3 --n 4:6":
        (0, "09be82fcc771ffaa14bea9bb100afffec6a8f1422609633f6e186acb32d9b69a"),
    "table pn --model exponential --p 3 --n 4:6 --output csv":
        (0, "bdc5b434b26ee79638fb30abbe96f575b43758eb957b836248bba1797b159bc1"),
    "table pn --model truncated --p 2 --n 3:5 --a 1/10":
        (0, "e942ef68781a540a56dc6235b80e19f38488590c433c2d5eae7dc257b07d4198"),
    "table pn --model truncated --p 2 --n 3:5 --a 1/10 --output csv":
        (0, "4286c14bab3bdf0bcda9288010e4238bca1324d998b30c9e92cb4f761a62989b"),
    "table pa --p 2:3 --n 4:6":
        (0, "fa8f577eb1fcd61af4add44fd7112fd8d5a01aad6acc7090a9c7838e0b190348"),
    "table pa --p 2:3 --n 4:6 --output csv":
        (0, "27cf7c27aed0d7108e80b355f84aece9fbeb027e1caf59474aa1de01b6eee75a"),
    "table pr --p 2:5":
        (0, "af48774ec9407d772a653473520508975e70b45b910f9765204f3ea9f5dcf8cc"),
    "table pr --p 2:5 --output csv":
        (0, "50e130fc17c27734cbaf612ea5091baa615b0f07211c370f955c55ab20353830"),
    "simulate --event pn --model pickup --p 2 --n 5 --trials 3000 --seed 7":
        (0, "bff8fb47266b85bf4ea000ce8418d2bcb076396c76f362ae34d41e9810f20515"),
    "simulate --event pn --model truncated --p 2 --n 5 --trials 3000 --seed 7 --a 1/10":
        (0, "bf4133009c90e79003ebca81a0b8b90742fc150d626dceb51277e5258ef3e141"),
    "simulate --event pn --model exponential --p 2 --n 5 --trials 3000 --seed 7":
        (0, "87afab3ac4de8878f6b5dabd3258ca4121b95ebdfd5e2ef1b11ee65ebc0e74d4"),
    "simulate --event pn --model broken --p 2 --n 5 --trials 3000 --seed 7":
        (0, "d1c7869cd1cab71cdf0dd2d93009445f4246e82a9b2e6d389287e0ad93b200b2"),
    "simulate --event pa --model pickup --p 2 --n 5 --trials 3000 --seed 7":
        (0, "6e387a6fdb29a1f7d3258cad02fe658d1994ab68df4931b7eb284597b07a9ec8"),
    "simulate --event pa --model truncated --p 2 --n 5 --trials 3000 --seed 7 --a 1/10":
        (0, "73b52eee1d444997a9e9e6d400c9ab156884d555ebe349f7e1f7a837876e9c6e"),
    "simulate --event pa --model exponential --p 2 --n 5 --trials 3000 --seed 7 --rate 2.5":
        (0, "cd9cd3dc6c60afba939d781b3503a2db0c316a95e03358adcffef2ca3f65098f"),
    "simulate --event pa --model broken --p 2 --n 5 --trials 3000 --seed 7":
        (0, "fe4795cf0d556e937fe0534695e1702d73cc73f7e13349bc5bb7386242f36c66"),
    "simulate --event pr --model pickup --p 2 --n 5 --trials 3000 --seed 7":
        (0, "8977f20b2889e914741fe33045d0efcad9fcaa3c1bb1211bf2178d3324164760"),
    "simulate --event pr --model truncated --p 2 --n 5 --trials 3000 --seed 7 --a 1/10":
        (0, "90237594618bdf84254e4cfa6d494dc17e41754fd2ed06b5c2b88ea2f9d0567b"),
    "simulate --event pr --model exponential --p 2 --n 5 --trials 3000 --seed 7":
        (0, "5e4df6ec18b22d7aea1b97581766796eb95736424459d8d90eae2cf7a8fa9f87"),
    "simulate --event pr --model broken --p 2 --n 5 --trials 3000 --seed 7 --workers 3":
        (0, "ed6285de2e556d8b17b2fc624d22d3fcebb1ed269c277de880e61559d7c8d40c"),
    "simulate --event pa --p 4 --n 6 --trials 3000 --seed 1":
        (0, "c48e094dd9cebfdea58ef0d2be7fc408cd015f87a49037369738b6d1cd0c9a2a"),
    "constants fib --p 3 --i 1:12":
        (0, "ebf59e70e721cbf1abb2acf309f1427935b0b0178465023f02b5f43c08414ec0"),
    "constants m --p 3 --n 7":
        (0, "c36791f2d63e7a9125f5aea5ee3d21746798bacce12b704c9345482b2bf46b99"),
    "constants s --p 2 --n 6":
        (0, "c8d18fe98cd477871c052d48077273420e369d0641a0391672f9923061763ea4"),
    "constants emax --p 2 --n 5 --i 3":
        (0, "a7283aca906f83428057ae7c16dbb556c4c035f933a5a149076c09edca8b3079"),
    "constants emax --p 3 --n 6 --i 2 --model broken":
        (0, "1169cd3a863dffd90e73be5b61c2b575d7c1716efec6fd11fa28d93d1e81e9a8"),
    "verify --suite mc --trials 20000":
        (0, "bea56d14c5b4c7a5a32d956d5dab57df26abc80b3c414664981cf88541587a22"),
    "verify --suite exact":
        (0, "15be9383f761d49da007d2d4e173e5833c0bf4b2a0c1e69c3a25a4535d659079"),
    "compute pn --p 2":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "compute pn --p 1 --n 4":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "compute pn --p 2 --n 4 --a 1/4":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "compute pn --model truncated --p 2 --n 3":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "compute pn --model truncated --p 2 --n 3 --a 3/2":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "compute pr --p 2 --n 5":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "compute pa --p 4 --n 6":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "compute pa --model broken --p 2 --n 4":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "table pa --p 2:5 --n 4:6":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "table pn --p 4:2 --n 3:5":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "table pn --p 2:3":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "simulate --event pr --p 3 --n 3 --trials 100":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "simulate --event pn --p 2 --n 3 --trials 100 --rate 2.0":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "simulate --event pn --model truncated --p 2 --n 3 --trials 100 --a 1":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "constants emax --p 2 --n 5 --i 5":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "constants fib --p 1 --i 1:3":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("argv", GOLDEN)
def test_cli_output_is_pinned(argv):
    exit_code, digest = GOLDEN[argv]
    res = CliRunner().invoke(cli, argv.split())
    assert res.exit_code == exit_code, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest
