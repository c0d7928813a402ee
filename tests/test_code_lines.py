"""tools/code_lines.py: the code-line count that CI prints for src/fanocert."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    text = '\n'.join([
        '"""Module', '', 'docstring."""', '', '# comment',
        'x = (1,', '     2)  # trailing', '', '',
        'class A:', '    """Doc."""', '',
        '    def f(self):', "        '''Doc.'''", '        return """not a', 'docstring"""', ''])
    # x = (1, 2), class A, def f and the two lines of the returned string
    assert _tool().code_lines(text) == 6


def test_code_lines_print_each_module_and_the_total(capsys):
    root = TOOL.parents[1]
    assert _tool().main() == 0
    *modules, total = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in modules] == [
        path.relative_to(root).as_posix() for path in sorted(root.glob("src/fanocert/*.py"))]
    assert total.endswith(" code lines in total")
    assert int(total.split()[0]) == sum(int(line.split()[0]) for line in modules) > 1000
