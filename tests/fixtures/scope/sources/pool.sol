pragma solidity ^0.8.0;

interface IERC20 {
    function balanceOf(address account) external view returns (uint256);
}

interface IOracle {
    function price() external view returns (uint256);
}

contract Fees {
    uint256 internal baseFee;
    uint256 private hiddenFee;

    /// Returns the base fee.
    function fee() public view returns (uint256) {
        return baseFee;
    }
}

contract Pool is Fees {
    struct Position {
        uint256 size;
        uint256 price;
    }

    enum Side { Buy, Sell }

    uint256 constant LIMIT = 1000;
    uint256[] public sizes;
    IERC20 public token;
    IOracle public oracle;

    /// Halves twice the amount.
    function scale(uint256 amount) internal pure returns (uint256) {
        uint256 hidden = amount * 2;
        return hidden / 2;
    }

    /// Sums a and b into r.
    function sum(uint256 a, uint256 b) public pure returns (uint256 r) {
        r = a + b;
    }

    /// Adds a to b.
    function add(uint256 a, uint256 b) public pure returns (uint256) {
        return a + b;
    }
}

// Ownable is declared in another file, so what Wrapped's functions see
// cannot be decided from this one.
contract Wrapped is Ownable {
    /// Doubles a.
    function twice(uint256 a) public pure returns (uint256) {
        return a * 2;
    }
}

contract Ledger {
    /// Adds a to b, both in wei.
    function addWei(uint256 a /* (wei) */, uint256 b) public pure returns (uint256) {
        return a + b;
    }

    /// The larger of a and b.
    function larger(
        uint256 a, // first, larger
        uint256 b
    ) public pure returns (uint256) {
        return a > b ? a : b;
    }
}
